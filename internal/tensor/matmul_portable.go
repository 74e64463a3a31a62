//go:build !amd64 || purego

package tensor

// matMulPanels is the assembly kernel's place on builds that have none:
// it computes no column, and matMulRows gives them all to matMulPortable.
func matMulPanels(d, av, bv []float64, m, k, n int) int { return 0 }
