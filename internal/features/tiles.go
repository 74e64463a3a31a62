package features

import (
	"context"
	"fmt"

	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
)

// Tiling is how a DCT tensor splits into square tiles that are computed
// apart: each tile a whole number of DCT blocks, the clip a whole number
// of tiles. Windows of a scan that steps by the tile edge overlap in
// whole tiles, so a tile computed from one window's clip serves every
// window that holds it.
//
// A tile's coefficients carry the bits Extract gives the same blocks.
// RasterizeInto computes a pixel's coverage from the shapes over that
// pixel alone, in Shapes order, from integer overlaps measured from the
// raster origin, and the tile's origin is a whole number of pixels from
// the clip's, so every fraction, running sum and clamp is the one the
// clip's own raster makes; and ForwardBlocks' coefficient is the same
// sum whichever other blocks are computed beside it. For two clips to
// agree on a tile they must hold the same shapes over it in the same
// order, each clipped to a rectangle containing the tile: layout.ClipAt's
// clips do.
type Tiling struct {
	d      *DCT
	clipNM int
	tileNM int
	blocks int // DCT blocks per tile edge
	bs     int // pixels per block edge
}

// Tiling returns the split of d's tensor of a clipNM-square clip into
// tileNM-square tiles. ok is false when there is none: the clip is not a
// whole number of tiles, a tile not a whole number of blocks, or the
// clip not a whole number of pixels and blocks to begin with.
func (d *DCT) Tiling(clipNM, tileNM int) (t Tiling, ok bool) {
	px := pitch(d.PixelNM)
	if d.Blocks <= 0 || d.Coefs <= 0 || clipNM <= 0 || tileNM <= 0 ||
		clipNM%px != 0 || clipNM/px%d.Blocks != 0 || clipNM%tileNM != 0 {
		return Tiling{}, false
	}
	bs := clipNM / px / d.Blocks
	if tileNM%(bs*px) != 0 || d.Coefs > bs*bs {
		return Tiling{}, false
	}
	return Tiling{d: d, clipNM: clipNM, tileNM: tileNM, blocks: tileNM / (bs * px), bs: bs}, true
}

// PerSide is the number of tiles along a clip edge.
func (t Tiling) PerSide() int { return t.clipNM / t.tileNM }

// TileLen is the number of coefficients in one tile.
func (t Tiling) TileLen() int { return t.d.Coefs * t.blocks * t.blocks }

// ExtractTile writes to dst the coefficients of tile (tx, ty) of the
// clip's tensor, coefficient-major like the tensor itself: coefficient k
// of the tile's block (by, bx) at dst[(k*b+by)*b+bx], b blocks per tile
// edge. It emits one "raster" and one "features" span, as ExtractCtx
// does for a whole clip.
func (t Tiling) ExtractTile(ctx context.Context, dst []float64, clip layout.Clip, tx, ty int) error {
	if clip.Window.Dx() != t.clipNM || clip.Window.Dy() != t.clipNM {
		return fmt.Errorf("features: dct tile: clip window %v is not %d nm square", clip.Window, t.clipNM)
	}
	if n := t.PerSide(); tx < 0 || ty < 0 || tx >= n || ty >= n || len(dst) < t.TileLen() {
		return fmt.Errorf("features: dct tile (%d, %d) of %d per side into %d floats, want %d",
			tx, ty, n, len(dst), t.TileLen())
	}
	origin := clip.Window.Min.Add(geom.Pt(tx*t.tileNM, ty*t.tileNM))
	tile := geom.Rect{Min: origin, Max: origin.Add(geom.Pt(t.tileNM, t.tileNM))}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	if err := rasterize(ctx, sc, t.d, "dct tile", tile, clip.Shapes, t.d.PixelNM); err != nil {
		return err
	}
	sp := startSpan(ctx, "features", t.d)
	defer sp.End()
	return t.d.blocksInto(dst, sc, t.bs)
}

// Place copies tile (tx, ty) to where it lies in the clip's tensor.
func (t Tiling) Place(tensor, tile []float64, tx, ty int) {
	b, n := t.blocks, t.d.Blocks
	for k := 0; k < t.d.Coefs; k++ {
		for by := 0; by < b; by++ {
			copy(tensor[(k*n+ty*b+by)*n+tx*b:][:b], tile[(k*b+by)*b:][:b])
		}
	}
}
