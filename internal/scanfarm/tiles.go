// Feature tiles and first-layer sums: what the windows of one shard
// share on the miss path.
//
// The grid steps by the core edge (CoreNM), so when the clip is a whole number of
// strides a window is PerSide x PerSide stride-square tiles and each
// tile lies in up to PerSide² windows (four at the default geometry).
// A worker rasterises and block-DCTs a tile once per shard scan, from
// the clip of the first window that misses the cache over it, and every
// later miss of the scan copies it (features.Tiling has the argument
// for why the bits are Extract's). scanShard sweeps column by column, so
// the tile columns a window needs are the last PerSide the sweep met: the
// memo is a ring of that many columns, ShardRows+PerSide-1 tiles each,
// whatever the chip's width.
//
// The detector's first layer is a same-padded convolution over the whole
// tensor (core.NeuralDetector.Conv1), so two horizontal neighbours share
// most of that layer's sums too. The window at column col reads the
// tensor's cells s columns to the right of where its left neighbour read
// them, s being the DCT blocks a tile spans, so its output column x is
// its neighbour's x+s wherever neither reaches into the zero border
// beside its own window: for x in [p, W-p-s) at pad p and tensor width
// W. Both windows have the same rows, and so the same zero border above
// and below, and each such cell is the same products summed in the same
// order: the neighbour's bits. The memo keeps its tiles transposed
// (each transposed once, when it is computed) and places a window into a
// zero-bordered plane stored transposed, where an output column is one
// row of the product (nn.Conv2D.SumRows); it keeps each shard row's last
// two windows of sums, and a window whose left neighbour was scored in
// the same scan copies the shared columns and computes only the
// others. Any other window (column 0, or after a cache hit or a
// SkipEmpty window) computes all of them.

package scanfarm

import (
	"context"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/features"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/nn"
)

// tileMemo is one worker's tiles and what it assembles from them: the
// window's transposed plane and first-layer sums. It belongs to the
// worker's goroutine alone.
type tileMemo struct {
	features.Tiling
	det     *core.NeuralDetector
	conv    *nn.Conv2D // the detector's Conv1
	rows    int        // tile rows a shard spans
	blocks  int        // DCT blocks along a tile's edge: the s above
	coef    []float64  // PerSide columns x rows transposed tiles of TileLen coefficients
	have    []bool     // which of them this scan has computed
	tile    []float64  // ExtractTile's output, on its way into coef
	win     core.Conv1Window
	sums    []float64 // per shard row, two windows' sums, by column parity
	sumsCol []int     // per shard row, the column of its latest sums; -1 none
}

// newTileMemo returns the memo for a scan, or nil when the scan scores
// window by window: the detector has no Conv1, or the geometry does not
// split into tiles.
func newTileMemo(det core.Detector, plan Plan) *tileMemo {
	nd, ok := det.(*core.NeuralDetector)
	if !ok {
		return nil
	}
	c := nd.Conv1()
	if c == nil {
		return nil
	}
	ex := nd.Ex.(*features.DCT) // Conv1 is only ever a DCT tensor's
	tl, ok := ex.Tiling(plan.ClipNM, plan.CoreNM())
	if !ok {
		return nil
	}
	rows := plan.ShardRows + tl.PerSide() - 1
	return &tileMemo{
		Tiling: tl, det: nd, conv: c, rows: rows, blocks: ex.Blocks / tl.PerSide(),
		coef: make([]float64, tl.PerSide()*rows*tl.TileLen()),
		have: make([]bool, tl.PerSide()*rows),
		tile: make([]float64, tl.TileLen()),
		win: core.Conv1Window{
			Plane: make([]float64, c.InC*(c.InW+2*c.Pad)*(c.InH+2*c.Pad)),
			Taps:  c.TransposedTaps(),
		},
		sums:    make([]float64, 2*plan.ShardRows*c.OutDim()),
		sumsCol: make([]int, plan.ShardRows),
	}
}

// startColumn moves the scan's sweep to window column col. Column 0
// starts a shard's scan, which computes its own tiles and sums: all are
// forgotten. After that tile column col-1 is behind every window still
// to come, and its ring slot now stands for tile column col+PerSide-1. A
// nil memo has nothing to move.
func (m *tileMemo) startColumn(col int) {
	switch {
	case m == nil:
	case col == 0:
		clear(m.have)
		for i := range m.sumsCol {
			m.sumsCol[i] = -1
		}
	default:
		slot := (col - 1) % m.PerSide()
		clear(m.have[slot*m.rows : (slot+1)*m.rows])
	}
}

// tileAt returns tile (tx, ty) of the window at grid column col and
// shard-relative row, computing it from canon, the window's canonical
// clip, when no earlier window of the scan left it behind.
func (m *tileMemo) tileAt(ctx context.Context, canon layout.Clip, col, row, tx, ty int) ([]float64, error) {
	n, size := m.PerSide(), m.TileLen()
	i := (col+tx)%n*m.rows + row + ty
	tile := m.coef[i*size : (i+1)*size]
	if m.have[i] {
		return tile, nil
	}
	// Coefficient-major like the tensor, each coefficient's b x b blocks
	// transposed: block (by, bx) at tile[(k*b+bx)*b+by].
	if err := m.ExtractTile(ctx, m.tile, canon, tx, ty); err != nil {
		return nil, err
	}
	b := m.blocks
	for k := 0; k < m.conv.InC; k++ {
		src, dst := m.tile[k*b*b:][:b*b], tile[k*b*b:][:b*b]
		for by := 0; by < b; by++ {
			for bx := 0; bx < b; bx++ {
				dst[bx*b+by] = src[by*b+bx]
			}
		}
	}
	m.have[i] = true
	return tile, nil
}

// conv1Window assembles the window at grid column col and shard-relative
// row from its tiles: it places the window's transposed tiles inside the
// plane's zero border, which nothing ever writes, and hands core the
// buffer the window's sums go into with the columns it shares with its
// left neighbour already copied there.
func (m *tileMemo) conv1Window(ctx context.Context, canon layout.Clip, col, row int) (core.Conv1Window, error) {
	c, n, b := m.conv, m.PerSide(), m.blocks
	pw, ph := c.InW+2*c.Pad, c.InH+2*c.Pad
	for ty := 0; ty < n; ty++ {
		for tx := 0; tx < n; tx++ {
			tile, err := m.tileAt(ctx, canon, col, row, tx, ty)
			if err != nil {
				return core.Conv1Window{}, err
			}
			for k := 0; k < c.InC; k++ {
				for bx := 0; bx < b; bx++ {
					at := (k*pw+tx*b+bx+c.Pad)*ph + ty*b + c.Pad
					copy(m.win.Plane[at:][:b], tile[(k*b+bx)*b:][:b])
				}
			}
		}
	}
	od, positions := c.OutDim(), c.OutH()*c.OutW()
	m.win.Sums = m.sums[(2*row+col%2)*od:][:od]
	m.win.Lo, m.win.Hi = 0, 0
	if lo, hi := c.Pad, c.OutW()-c.Pad-b; col > 0 && m.sumsCol[row] == col-1 && lo < hi {
		left := m.sums[(2*row+(col-1)%2)*od:][:od]
		for oc := 0; oc < c.OutC; oc++ {
			at := oc*positions + lo*c.OutH()
			copy(m.win.Sums[at:at+(hi-lo)*c.OutH()], left[at+b*c.OutH():])
		}
		m.win.Lo, m.win.Hi = lo, hi
	}
	// Any failure from here on fails the shard's scan, and the worker's
	// next shard starts at column 0, which forgets these sums.
	m.sumsCol[row] = col
	return m.win, nil
}
