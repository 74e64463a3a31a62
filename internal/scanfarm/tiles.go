// Feature tiles: what the windows of one shard share on the miss path.
//
// The grid steps by StrideNM, so when the clip is a whole number of
// strides a window is PerSide x PerSide stride-square tiles and each
// tile lies in up to PerSide² windows (four at the default geometry).
// A worker rasterises and block-DCTs a tile once per shard attempt, from
// the clip of the first window that misses the cache over it, and every
// later miss of the attempt copies it (features.Tiling has the argument
// for why the bits are Extract's). scanShard sweeps column by column, so
// the tile columns a window needs are the last PerSide the sweep met: the
// memo is a ring of that many columns, ShardRows+PerSide-1 tiles each,
// whatever the chip's width.

package scanfarm

import (
	"context"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/features"
	"github.com/golitho/hsd/internal/layout"
)

// tileMemo is one worker's tiles and the window tensor it assembles from
// them. It belongs to the worker's goroutine alone.
type tileMemo struct {
	features.Tiling
	det    *core.NeuralDetector
	rows   int       // tile rows a shard spans
	coef   []float64 // PerSide columns x rows tiles of TileLen coefficients
	have   []bool    // which of them this attempt has computed
	tensor []float64 // the window in hand; the network reads it, nobody keeps it
}

// newTileMemo returns the memo for a scan, or nil when the scan scores
// window by window: the detector is not one DCT tensor and a network
// (only then is "the window's features" one vector that tiles can
// assemble), or the geometry does not split into tiles.
func newTileMemo(det core.Detector, plan Plan) *tileMemo {
	nd, ok := det.(*core.NeuralDetector)
	if !ok {
		return nil
	}
	ex, ok := nd.Ex.(*features.DCT)
	if !ok {
		return nil
	}
	tl, ok := ex.Tiling(plan.ClipNM, plan.StrideNM)
	if !ok {
		return nil
	}
	rows := plan.ShardRows + tl.PerSide() - 1
	return &tileMemo{
		Tiling: tl, det: nd, rows: rows,
		coef:   make([]float64, tl.PerSide()*rows*tl.TileLen()),
		have:   make([]bool, tl.PerSide()*rows),
		tensor: make([]float64, ex.Dim()),
	}
}

// startColumn moves the attempt's sweep to window column col. Column 0
// starts an attempt, which computes its own tiles: all are forgotten.
// After that tile column col-1 is behind every window still to come, and
// its ring slot now stands for tile column col+PerSide-1. A nil memo has
// nothing to move.
func (m *tileMemo) startColumn(col int) {
	switch {
	case m == nil:
	case col == 0:
		clear(m.have)
	default:
		slot := (col - 1) % m.PerSide()
		clear(m.have[slot*m.rows : (slot+1)*m.rows])
	}
}

// window assembles the tensor of the window at grid column col and
// shard-relative row from its tiles, computing from canon, the window's
// canonical clip, those no earlier window of the attempt left behind.
func (m *tileMemo) window(ctx context.Context, canon layout.Clip, col, row int) ([]float64, error) {
	n, size := m.PerSide(), m.TileLen()
	for ty := 0; ty < n; ty++ {
		for tx := 0; tx < n; tx++ {
			i := (col+tx)%n*m.rows + row + ty
			tile := m.coef[i*size : (i+1)*size]
			if !m.have[i] {
				if err := m.ExtractTile(ctx, tile, canon, tx, ty); err != nil {
					return nil, err
				}
				m.have[i] = true
			}
			m.Place(m.tensor, tile, tx, ty)
		}
	}
	return m.tensor, nil
}
