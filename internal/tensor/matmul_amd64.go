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
//	dst[i*ldn+j] = (acc ? dst[i*ldn+j] : 0) + Σ a[i*lda+t] * b[t*ldn+j]
//
// over t < k in ascending t, each product rounded before its add. It
// reads and writes exactly those elements; m, k and panels must be
// positive.
//
//go:noescape
func matmulPanelsAVX2(dst, a, b *float64, m, k, panels, lda, ldn int, acc bool)

// matMulPanels computes the leading whole panels of the m x n product d
// of av (m x k) and bv (k x n) with the assembly kernel and returns how
// many columns that was; 0 when the machine lacks AVX2. The slices have
// been cut to exactly m*n, m*k and k*n elements by matMulRows, which is
// what keeps every address the kernel forms inside them.
//
// The kernel holds a tile's sums in registers for a whole k tile and
// revisits dst once per tile (acc), in ascending k.
func matMulPanels(d, av, bv []float64, m, k, n int) int {
	panels := n / panelCols
	if !haveAVX2 || m == 0 || k == 0 || panels == 0 {
		return 0
	}
	for k0 := 0; k0 < k; k0 += mmBlockK {
		matmulPanelsAVX2(&d[0], &av[k0], &bv[k0*n], m, min(mmBlockK, k-k0), panels, k, n, k0 > 0)
	}
	return panels * panelCols
}
