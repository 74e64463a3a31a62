package core

import (
	"testing"

	"github.com/golitho/hsd/internal/geom"
)

// TestScanDefaultStrideTilesExactlyOnce is the tiling property: with the
// default stride (core size), the core regions of the grid's windows
// partition the chip bounds — every point of the die is covered by
// exactly one core.
func TestScanDefaultStrideTilesExactlyOnce(t *testing.T) {
	for _, tc := range []struct {
		name     string
		clipNM   int
		coreFrac float64
		edgeX    int
		edgeY    int
	}{
		{"square-pow2", 1024, 0.5, 4096, 4096},
		{"non-multiple", 1024, 0.5, 4000, 3000},
		{"full-core", 512, 1.0, 2048, 1536},
		{"rect-chip", 1024, 0.25, 2048, 1024},
	} {
		t.Run(tc.name, func(t *testing.T) {
			grid, err := NewGrid(geom.R(0, 0, tc.edgeX, tc.edgeY), tc.clipNM, tc.coreFrac)
			if err != nil {
				t.Fatal(err)
			}
			// The core as layout.ClipAt cuts it, not as the grid reports it.
			coreHalf := int(float64(tc.clipNM) * tc.coreFrac / 2)

			// Sample the die on a fine grid and count covering cores.
			const step = 64
			for y := 0; y < tc.edgeY; y += step {
				for x := 0; x < tc.edgeX; x += step {
					covered := 0
					for row := 0; row < grid.Rows; row++ {
						for col := 0; col < grid.Cols; col++ {
							c := grid.Center(col, row)
							core := geom.R(c.X-coreHalf, c.Y-coreHalf, c.X+coreHalf, c.Y+coreHalf)
							if geom.Pt(x, y).In(core) {
								covered++
							}
						}
					}
					if covered != 1 {
						t.Fatalf("point (%d,%d) covered by %d cores, want exactly 1", x, y, covered)
					}
				}
			}
		})
	}
}
