//go:build amd64 && !purego

package tensor

// cpuTiers lists every kernel tier this CPU has, narrowest first: the
// portable loop, then each assembly kernel it can run.
func cpuTiers() []tier {
	tiers := []tier{tierPortable}
	avx2, avx512 := cpuHas()
	if avx2 {
		tiers = append(tiers, tierAVX2)
	}
	if avx512 {
		tiers = append(tiers, tierAVX512)
	}
	return tiers
}
