// Fused im2col+matmul convolution: the receptive-field gather is tiled
// through the blocked matmul kernel instead of materializing the full
// column matrix per sample. A band of output rows is gathered into a
// small column tile (bounded working set, every cell written so no
// per-sample re-zeroing), multiplied with the blocked kernel and
// scattered with the bias fold, which caps the scratch at convTileElems
// instead of InC*K*K x OutH*OutW.
//
// Bit-identity with Conv2D.Forward (im2col + matmul) holds exactly, not
// approximately: the tile IS the im2col matrix restricted to a column
// band, and every output element is produced by one MatMulInto call
// contracting its full k range in the same ascending (ch, ky, kx) order
// with the same left-associated adds. Column tiling only changes which
// independent elements are computed together, never the term order
// within an element.

package nn

// convGeom is the geometry a fused convolution needs, precomputed once
// per forward pass.
type convGeom struct {
	inC, inH, inW  int
	outC           int
	k, stride, pad int
	oh, ow         int
}

func (c *Conv2D) geom() convGeom {
	return convGeom{
		inC: c.InC, inH: c.InH, inW: c.InW,
		outC: c.OutC, k: c.K, stride: c.Stride, pad: c.Pad,
		oh: c.OutH(), ow: c.OutW(),
	}
}

// convTileElems bounds the element count of one column tile. 16K
// float64s is 128 KB — small enough that the tile being gathered stays
// cache-resident for the matmul that immediately consumes it, large
// enough that the per-tile matmul still amortizes its setup.
const convTileElems = 16 << 10

// convTileRows picks how many output rows to gather per tile: as many
// as fit the element budget, at least one, never more than the output
// height.
func convTileRows(g convGeom) int {
	klen := g.inC * g.k * g.k
	rows := convTileElems / (klen * g.ow)
	if rows < 1 {
		rows = 1
	}
	if rows > g.oh {
		rows = g.oh
	}
	return rows
}

// validRange returns the contiguous output index range [lo, hi) of outN
// positions whose input coordinate o*stride + k - pad lies inside
// [0, size). Positions outside the range read only zero padding for
// this tap.
func validRange(outN, stride, k, pad, size int) (int, int) {
	lo := 0
	if d := pad - k; d > 0 {
		lo = (d + stride - 1) / stride
	}
	num := size - 1 + pad - k
	if num < 0 {
		return 0, 0
	}
	hi := num/stride + 1
	if hi > outN {
		hi = outN
	}
	if lo >= hi {
		return 0, 0
	}
	return lo, hi
}

// im2colTile gathers output rows [oyA, oyB) of one flattened (C, H, W)
// sample into cols, laid out exactly as the corresponding column band
// of the full im2col matrix: row r = (ch*K+ky)*K+kx, column
// (oy-oyA)*OutW+ox, row-major with stride tp = (oyB-oyA)*OutW. Every
// cell is written — out-of-image taps as explicit zeros — so the buffer
// needs no per-sample reset. Stride-1 interiors reduce to contiguous
// copies.
func im2colTile(g convGeom, sample []float64, oyA, oyB int, cols []float64) {
	tp := (oyB - oyA) * g.ow
	rowIdx := 0
	for ch := 0; ch < g.inC; ch++ {
		chOff := ch * g.inH * g.inW
		for ky := 0; ky < g.k; ky++ {
			for kx := 0; kx < g.k; kx++ {
				dst := cols[rowIdx*tp : (rowIdx+1)*tp]
				rowIdx++
				ox0, ox1 := validRange(g.ow, g.stride, kx, g.pad, g.inW)
				t := 0
				for oy := oyA; oy < oyB; oy++ {
					drow := dst[t : t+g.ow]
					t += g.ow
					iy := oy*g.stride + ky - g.pad
					if iy < 0 || iy >= g.inH {
						for j := range drow {
							drow[j] = 0
						}
						continue
					}
					src := sample[chOff+iy*g.inW : chOff+(iy+1)*g.inW]
					for j := 0; j < ox0; j++ {
						drow[j] = 0
					}
					if g.stride == 1 {
						copy(drow[ox0:ox1], src[ox0+kx-g.pad:])
					} else {
						for ox := ox0; ox < ox1; ox++ {
							drow[ox] = src[ox*g.stride+kx-g.pad]
						}
					}
					for j := ox1; j < g.ow; j++ {
						drow[j] = 0
					}
				}
			}
		}
	}
}
