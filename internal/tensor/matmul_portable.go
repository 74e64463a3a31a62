//go:build !amd64 || purego

package tensor

// kernelTier is the portable loop alone: these builds have no assembly.
var kernelTier = tierPortable

// matMulPanels is the assembly kernel's place on builds that have none:
// it computes no column, and matMulTiles gives them all to matMulPortable.
func matMulPanels(d []float64, ldd int, av []float64, lda int, bv []float64, off []int, m, n int, acc bool) int {
	return 0
}
