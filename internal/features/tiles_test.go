package features

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
)

// tiledChip draws a region of 3 x 3 clips with what the tile argument
// has to survive: stacks of overlapping shapes that saturate a pixel at
// 1, edges on odd coordinates that end mid-pixel at any pitch, long
// wires that cross every tile edge, and a blank stretch so some tiles
// (and one whole window) are empty.
func tiledChip(t *testing.T, rng *rand.Rand, clipNM int) *layout.Layout {
	t.Helper()
	l := layout.New("tiles")
	add := func(r geom.Rect) {
		t.Helper()
		if err := l.AddRect(r); err != nil {
			t.Fatal(err)
		}
	}
	edge := 3 * clipNM
	blank := geom.R(0, 0, clipNM+clipNM/2, clipNM+clipNM/2)
	for i := 0; i < 160; i++ {
		x, y := rng.Intn(edge), rng.Intn(edge)
		r := geom.R(x, y, x+5+rng.Intn(clipNM/4), y+5+rng.Intn(clipNM/4))
		if r.Overlaps(blank) {
			continue
		}
		add(r)
		if i%4 == 0 { // saturate: the same spot again, and a third time shifted by a few nm
			add(r)
			add(r.Translate(geom.Pt(3, -2)))
		}
	}
	for i := 0; i < 6; i++ { // wires across the whole region, off the blank corner
		y := clipNM + clipNM/2 + 7 + rng.Intn(clipNM)
		add(geom.R(0, y, edge, y+11+rng.Intn(40)))
		x := clipNM + clipNM/2 + 7 + rng.Intn(clipNM)
		add(geom.R(x, 0, x+11+rng.Intn(40), edge))
	}
	return l
}

// TestTilesCarryExtractBits is the property the scan farm's shared tiles
// rest on: a window's tensor assembled from tiles has the Float64bits of
// DCT.Extract on the window's own clip, also when a tile was computed
// from a neighbouring window's clip, whichever neighbour met it first.
// At a pitch of 6 nm the pixel area is not a power of two, so a coverage
// fraction is rounded: equality there comes from the two rasters doing
// the same operations in the same order, not from exact arithmetic. ci.sh
// runs this on both matmul kernels.
func TestTilesCarryExtractBits(t *testing.T) {
	for _, g := range []struct {
		d              *DCT
		clipNM, tileNM int
	}{
		{&DCT{Blocks: 16, Coefs: 16}, 1024, 512},            // the zoo's geometry: 2 x 2 tiles
		{&DCT{Blocks: 16, Coefs: 16}, 1024, 256},            // 4 x 4
		{&DCT{Blocks: 16, Coefs: 64}, 1024, 64},             // one block a tile, every coefficient
		{&DCT{Blocks: 16, Coefs: 16, PixelNM: 6}, 768, 384}, // pixel area 36
		{&DCT{Blocks: 8, Coefs: 20, PixelNM: 12}, 960, 240}, // 10 px blocks, pixel area 144
		{&DCT{Blocks: 4, Coefs: 10}, 1024, 1024},            // the clip is the tile
	} {
		t.Run(fmt.Sprintf("%s-px%d-%d-%d", g.d.Name(), pitch(g.d.PixelNM), g.clipNM, g.tileNM), func(t *testing.T) {
			tl, ok := g.d.Tiling(g.clipNM, g.tileNM)
			if !ok {
				t.Fatal("geometry does not tile")
			}
			n := tl.PerSide()
			if n != g.clipNM/g.tileNM || tl.TileLen()*n*n != g.d.Dim() {
				t.Fatalf("%d tiles a side of %d coefficients do not make a %d tensor", n, tl.TileLen(), g.d.Dim())
			}
			chip := tiledChip(t, rand.New(rand.NewSource(int64(g.clipNM+g.tileNM))), g.clipNM)
			// Windows step by the tile edge over the region; window (col,
			// row) holds global tiles (col..col+n-1, row..row+n-1).
			side := 2*n + 1
			clips := make([]layout.Clip, side*side)
			want := make([][]float64, side*side)
			emptyWindows := 0
			for row := 0; row < side; row++ {
				for col := 0; col < side; col++ {
					c := geom.Pt(g.clipNM/2+col*g.tileNM, g.clipNM/2+row*g.tileNM)
					clip, err := chip.ClipAt(c, g.clipNM, 0.5)
					if err != nil {
						t.Fatal(err)
					}
					if len(clip.Shapes) == 0 {
						emptyWindows++
					}
					// As the farm holds it: translated to the origin.
					clips[row*side+col] = clip.Translate()
					if want[row*side+col], err = g.d.Extract(clip); err != nil {
						t.Fatal(err)
					}
				}
			}
			if emptyWindows == 0 || emptyWindows == len(clips) {
				t.Fatalf("%d of %d windows are empty: the fixture is degenerate", emptyWindows, len(clips))
			}
			// Forwards, a tile comes from the window it is the bottom-right
			// of; backwards, from the one it is the top-left of.
			for _, backwards := range []bool{false, true} {
				tiles := map[geom.Point][]float64{}
				got := make([]float64, g.d.Dim())
				for i := range clips {
					w := i
					if backwards {
						w = len(clips) - 1 - i
					}
					col, row := w%side, w/side
					for ty := 0; ty < n; ty++ {
						for tx := 0; tx < n; tx++ {
							key := geom.Pt(col+tx, row+ty)
							tile, ok := tiles[key]
							if !ok {
								tile = make([]float64, tl.TileLen())
								if err := tl.ExtractTile(context.Background(), tile, clips[w], tx, ty); err != nil {
									t.Fatal(err)
								}
								tiles[key] = tile
							}
							tl.Place(got, tile, tx, ty)
						}
					}
					sameBits(t, fmt.Sprintf("window (%d,%d) backwards=%v", col, row, backwards), got, want[w])
				}
				if shared := len(clips)*n*n - len(tiles); n > 1 && shared == 0 {
					t.Fatal("no tile was shared between windows")
				}
			}
		})
	}
}

// TestTilingRefusesWhatDoesNotTile: the geometries the farm must score
// window by window, and the calls ExtractTile must not index past.
func TestTilingRefusesWhatDoesNotTile(t *testing.T) {
	zoo := &DCT{Blocks: 16, Coefs: 16}
	for _, g := range []struct {
		name           string
		d              *DCT
		clipNM, tileNM int
	}{
		{"clip not whole strides", zoo, 1024, 500},
		{"stride not whole blocks", zoo, 1024, 96},
		{"stride off the block edge", zoo, 1024, 32},
		{"clip not whole pixels", &DCT{Blocks: 16, Coefs: 16, PixelNM: 7}, 1024, 512},
		{"clip not whole blocks", &DCT{Blocks: 12, Coefs: 16}, 1024, 512},
		{"more coefficients than a block has", &DCT{Blocks: 16, Coefs: 65}, 1024, 512},
		{"no blocks", &DCT{Coefs: 16}, 1024, 512},
		{"no stride", zoo, 1024, 0},
	} {
		if _, ok := g.d.Tiling(g.clipNM, g.tileNM); ok {
			t.Errorf("%s: Tiling(%d, %d) accepted", g.name, g.clipNM, g.tileNM)
		}
	}
	tl, ok := zoo.Tiling(1024, 512)
	if !ok {
		t.Fatal("the zoo's geometry does not tile")
	}
	clip := testClip(t, geom.R(100, 100, 300, 300))
	dst := make([]float64, tl.TileLen())
	for _, bad := range []struct {
		name   string
		dst    []float64
		clip   layout.Clip
		tx, ty int
	}{
		{"tile off the clip", dst, clip, 2, 0},
		{"negative tile", dst, clip, 0, -1},
		{"short destination", dst[:len(dst)-1], clip, 0, 0},
		{"clip of another size", dst, layout.Clip{Window: geom.R(0, 0, 512, 512)}, 0, 0},
	} {
		if err := tl.ExtractTile(context.Background(), bad.dst, bad.clip, bad.tx, bad.ty); err == nil {
			t.Errorf("%s: ExtractTile accepted", bad.name)
		}
	}
}
