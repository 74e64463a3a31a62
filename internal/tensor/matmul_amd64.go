//go:build amd64 && !purego

package tensor

// panelCols is the width of a panel, the unit the assembly kernels take
// columns in: two four-lane vectors of the AVX2 tile, one eight-lane
// vector of the AVX-512 one.
const panelCols = 8

// kernelTier is the widest tier this CPU has, read once from CPUID and
// XGETBV. Nothing else selects a kernel.
var kernelTier = widestTier(cpuHas())

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of XCR0, the register state the operating
// system saves; only valid when CPUID reports OSXSAVE.
func xgetbv() (xcr0 uint32)

// cpuHas reports whether the CPU has each assembly tier and the
// operating system saves the registers it uses: AVX2 needs the XMM and
// YMM state (XCR0 bits 1 and 2), AVX-512F the opmask and both halves of
// the ZMM state too (bits 5, 6 and 7), so a hypervisor that hides ZMM
// state gets AVX2.
func cpuHas() (avx2, avx512 bool) {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false, false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false, false
	}
	xcr0 := xgetbv()
	_, ebx, _, _ := cpuid(7, 0)
	return xcr0&0x06 == 0x06 && ebx&(1<<5) != 0, xcr0&0xE6 == 0xE6 && ebx&(1<<16) != 0
}

func widestTier(avx2, avx512 bool) tier {
	switch {
	case avx512:
		return tierAVX512
	case avx2:
		return tierAVX2
	}
	return tierPortable
}

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

// matmulPanelsAVX512 is matmulPanelsAVX2 on 512-bit registers: the same
// contract, the same sums to the bit.
//
//go:noescape
func matmulPanelsAVX512(dst, a, b *float64, off *int, m, k, panels, lda, ldd int, acc bool)

// matMulPanels runs kernelTier's assembly over the leading whole panels
// of one k tile of a product (see matMulTiles, whose arguments these are)
// and returns how many columns that was; 0 on the portable tier.
func matMulPanels(d []float64, ldd int, av []float64, lda int, bv []float64, off []int, m, n int, acc bool) int {
	panels := n / panelCols
	if kernelTier == tierPortable || m == 0 || len(off) == 0 || panels == 0 {
		return 0
	}
	if kernelTier == tierAVX512 {
		matmulPanelsAVX512(&d[0], &av[0], &bv[0], &off[0], m, len(off), panels, lda, ldd, acc)
	} else {
		matmulPanelsAVX2(&d[0], &av[0], &bv[0], &off[0], m, len(off), panels, lda, ldd, acc)
	}
	return panels * panelCols
}
