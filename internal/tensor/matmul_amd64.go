//go:build amd64 && !purego

package tensor

// panelCols is the width of the assembly kernel's register tile: two
// four-lane vectors of dst columns, for each of four dst rows.
const panelCols = 8

// haveAVX2 is read once from CPUID and XGETBV: the CPU has AVX2 and the
// operating system saves the YMM registers. Nothing else selects a kernel.
var haveAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool

// matmulPanelsAVX2 computes, for every row i < m and every column
// j < panels*8,
//
//	dst[i*ldd+j] = (acc ? dst[i*ldd+j] : 0) + Σ a[i*lda+t] * b[off[t]+j]
//
// over t < k in ascending t, each product rounded before its add. It
// reads and writes exactly those elements; m, k and panels must be
// positive.
//
//go:noescape
func matmulPanelsAVX2(dst, a, b *float64, off *int, m, k, panels, lda, ldd int, acc bool)

// matMulPanels runs the assembly kernel over the leading whole panels of
// one k tile of a product (see matMulTiles, whose arguments these are) and
// returns how many columns that was; 0 when the machine lacks AVX2.
func matMulPanels(d []float64, ldd int, av []float64, lda int, bv []float64, off []int, m, n int, acc bool) int {
	panels := n / panelCols
	if !haveAVX2 || m == 0 || len(off) == 0 || panels == 0 {
		return 0
	}
	matmulPanelsAVX2(&d[0], &av[0], &bv[0], &off[0], m, len(off), panels, lda, ldd, acc)
	return panels * panelCols
}
