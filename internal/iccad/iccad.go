// Package iccad synthesizes hotspot-detection benchmark suites in the style
// of the ICCAD 2012 CAD contest.
//
// The contest distributed five industrial 28/32 nm metal-layer benchmarks
// (B1-B5), each a set of layout clips split into training and testing data
// with extreme class imbalance (roughly 1:4 to 1:100 hotspot:non-hotspot).
// The original GDSII data is not redistributable, so this package generates
// synthetic equivalents: random Manhattan metal patterns drawn from
// per-benchmark style distributions, labelled by the lithosim oracle.
// Class ratios follow the contest; absolute sizes are scaled down (about
// 10x on the test side) to keep a pure-Go pipeline laptop-friendly.
//
// Generation is deterministic in the suite seed: every candidate clip is
// produced from its own splitmix-derived seed, so parallel labelling does
// not perturb results.
package iccad

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/lithosim"
)

// Grid is the coordinate snap in nanometres for all generated geometry.
const Grid = 8

// Sample is one labelled clip.
type Sample struct {
	Clip layout.Clip
	// Hotspot is the oracle verdict.
	Hotspot bool
	// Family records which pattern generator produced the clip.
	Family string
	// PVBandArea is the oracle's process-variation band, a printability
	// stability measure usable as an auxiliary regression target.
	PVBandArea float64
}

// Split is a train or test partition.
type Split struct {
	Samples []Sample
}

// Counts returns (hotspots, non-hotspots) in the split.
func (s Split) Counts() (hs, nhs int) {
	for _, smp := range s.Samples {
		if smp.Hotspot {
			hs++
		} else {
			nhs++
		}
	}
	return hs, nhs
}

// Benchmark is one named benchmark with its two splits.
type Benchmark struct {
	Name  string
	Train Split
	Test  Split
}

// Suite is a full generated benchmark suite.
type Suite struct {
	Benchmarks []Benchmark
	Config     SuiteConfig
}

// Style controls the pattern distribution of one benchmark.
type Style struct {
	// Family weights; zero weight disables a family.
	LineArrayW, LineEndW, JogW, ContactW, MixedW float64
	// RiskProb is the probability that a generated clip contains at least
	// one deliberately aggressive (near-resolution-limit) construct.
	RiskProb float64
	// Safe and risky dimension ranges [lo, hi] in nm (snapped to Grid).
	SafeWidth, RiskWidth [2]int
	SafeSpace, RiskSpace [2]int
	SafeGap, RiskGap     [2]int
}

// DefaultStyle returns a balanced metal-layer style.
func DefaultStyle() Style {
	return Style{
		LineArrayW: 4, LineEndW: 2, JogW: 1.5, ContactW: 1, MixedW: 1.5,
		RiskProb:  0.22,
		SafeWidth: [2]int{72, 128}, RiskWidth: [2]int{48, 64},
		SafeSpace: [2]int{80, 176}, RiskSpace: [2]int{40, 56},
		SafeGap: [2]int{112, 224}, RiskGap: [2]int{48, 88},
	}
}

// Spec sizes one benchmark. Counts are exact: generation continues until
// each quota is met.
type Spec struct {
	Name  string
	Style Style
	// Quotas per split.
	TrainHS, TrainNHS, TestHS, TestNHS int
}

// SuiteConfig parameterizes GenerateSuite.
type SuiteConfig struct {
	// Seed drives all randomness; equal seeds give identical suites.
	Seed int64
	// ClipNM is the clip window edge (default 1024).
	ClipNM int
	// CoreFrac is the scored core fraction of the window (default 0.5).
	CoreFrac float64
	// Sim is the oracle configuration.
	Sim lithosim.Config
	// Specs lists the benchmarks to build.
	Specs []Spec
	// Workers bounds labelling concurrency; 0 means GOMAXPROCS.
	Workers int
	// MaxAttemptsFactor bounds candidate generation at
	// MaxAttemptsFactor x total quota (default 60).
	MaxAttemptsFactor int
}

// DefaultSuiteConfig returns the five-benchmark configuration whose class
// ratios mirror the ICCAD 2012 contest statistics (sizes scaled down).
func DefaultSuiteConfig(seed int64) SuiteConfig {
	b1 := DefaultStyle()
	b1.RiskProb = 0.30
	b1.LineEndW, b1.JogW = 3, 2

	b2 := DefaultStyle()
	b2.RiskProb = 0.12
	b2.ContactW = 2

	b3 := DefaultStyle()
	b3.RiskProb = 0.24
	b3.MixedW = 3

	b4 := DefaultStyle()
	b4.RiskProb = 0.10
	b4.SafeWidth = [2]int{80, 144}
	b4.JogW = 2.5

	b5 := DefaultStyle()
	b5.RiskProb = 0.06
	b5.LineArrayW = 6

	return SuiteConfig{
		Seed:     seed,
		ClipNM:   1024,
		CoreFrac: 0.5,
		Sim:      lithosim.DefaultConfig(),
		Specs: []Spec{
			{Name: "B1", Style: b1, TrainHS: 99, TrainNHS: 340, TestHS: 30, TestNHS: 200},
			{Name: "B2", Style: b2, TrainHS: 100, TrainNHS: 1200, TestHS: 35, TestNHS: 1000},
			{Name: "B3", Style: b3, TrainHS: 250, TrainNHS: 1300, TestHS: 50, TestNHS: 1300},
			{Name: "B4", Style: b4, TrainHS: 70, TrainNHS: 1200, TestHS: 14, TestNHS: 900},
			{Name: "B5", Style: b5, TrainHS: 26, TrainNHS: 800, TestHS: 10, TestNHS: 560},
		},
	}
}

// SmallSuiteConfig returns a two-benchmark miniature suite for tests and
// examples.
func SmallSuiteConfig(seed int64) SuiteConfig {
	cfg := DefaultSuiteConfig(seed)
	s1 := DefaultStyle()
	s1.RiskProb = 0.35
	s2 := DefaultStyle()
	s2.RiskProb = 0.20
	cfg.Specs = []Spec{
		{Name: "S1", Style: s1, TrainHS: 25, TrainNHS: 75, TestHS: 15, TestNHS: 60},
		{Name: "S2", Style: s2, TrainHS: 20, TrainNHS: 90, TestHS: 10, TestNHS: 70},
	}
	return cfg
}

func (c *SuiteConfig) normalize() error {
	if c.ClipNM <= 0 {
		c.ClipNM = 1024
	}
	if c.CoreFrac <= 0 || c.CoreFrac > 1 {
		c.CoreFrac = 0.5
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxAttemptsFactor <= 0 {
		c.MaxAttemptsFactor = 60
	}
	if len(c.Specs) == 0 {
		return fmt.Errorf("iccad: no benchmark specs")
	}
	for _, s := range c.Specs {
		if s.TrainHS < 0 || s.TrainNHS < 0 || s.TestHS < 0 || s.TestNHS < 0 {
			return fmt.Errorf("iccad: benchmark %q has negative quotas", s.Name)
		}
		if s.TrainHS+s.TrainNHS+s.TestHS+s.TestNHS == 0 {
			return fmt.Errorf("iccad: benchmark %q has zero size", s.Name)
		}
	}
	return nil
}

// GenerateSuite builds the full suite described by cfg.
func GenerateSuite(cfg SuiteConfig) (*Suite, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	sim, err := lithosim.New(cfg.Sim)
	if err != nil {
		return nil, fmt.Errorf("iccad: oracle: %w", err)
	}
	suite := &Suite{Config: cfg}
	for _, spec := range cfg.Specs {
		train, err := generateSplit(cfg, sim, spec, "train", spec.TrainHS, spec.TrainNHS)
		if err != nil {
			return nil, fmt.Errorf("iccad: %s train: %w", spec.Name, err)
		}
		test, err := generateSplit(cfg, sim, spec, "test", spec.TestHS, spec.TestNHS)
		if err != nil {
			return nil, fmt.Errorf("iccad: %s test: %w", spec.Name, err)
		}
		suite.Benchmarks = append(suite.Benchmarks, Benchmark{
			Name: spec.Name, Train: train, Test: test,
		})
	}
	return suite, nil
}

// labelAhead is how many candidates per worker may be claimed for
// labelling beyond the last one generateSplit has consumed. The window it
// gives, labelAhead x Workers, is the oracle work a split can throw away
// when it stops at quota; two keeps a worker busy while the consumer
// waits for a slower neighbour's candidate.
const labelAhead = 2

// labelled is one candidate's trip through the oracle.
type labelled struct {
	sample Sample
	err    error
}

// generateSplit consumes labelled candidates in index order until both
// class quotas are met. cfg.Workers goroutines claim candidate indices
// in ascending order and label them; a claim needs one of the window's
// tokens, returned when generateSplit has consumed that candidate, so the
// split stops at quota with at most a window of simulations to spare, and
// is the same whatever the worker count.
func generateSplit(cfg SuiteConfig, sim *lithosim.Simulator, spec Spec, split string, wantHS, wantNHS int) (Split, error) {
	total := wantHS + wantNHS
	if total == 0 {
		return Split{}, nil
	}
	maxAttempts := cfg.MaxAttemptsFactor * total

	// Candidate i is delivered on ring[i%window]: the tokens keep the
	// claimed indices within one window, so a slot holds one at a time and
	// a worker's send never blocks.
	window := labelAhead * cfg.Workers
	ring := make([]chan labelled, window)
	for i := range ring {
		ring[i] = make(chan labelled, 1)
	}
	tokens := make(chan struct{}, window)
	stop := make(chan struct{})
	var claimed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case tokens <- struct{}{}:
				case <-stop:
					return
				}
				i := int(claimed.Add(1)) - 1
				if i >= maxAttempts {
					return
				}
				var l labelled
				l.sample, l.err = labelCandidate(cfg, sim, spec, split, i)
				ring[i%window] <- l
			}
		}()
	}
	defer wg.Wait()
	defer func() {
		claimed.Store(int64(maxAttempts)) // a worker that wins a token now finds nothing to claim
		close(stop)
	}()

	out := Split{Samples: make([]Sample, 0, total)}
	gotHS, gotNHS := 0, 0
	for i := 0; i < maxAttempts && (gotHS < wantHS || gotNHS < wantNHS); i++ {
		l := <-ring[i%window]
		<-tokens
		if l.err != nil {
			return Split{}, l.err
		}
		switch {
		case l.sample.Hotspot && gotHS < wantHS:
			out.Samples = append(out.Samples, l.sample)
			gotHS++
		case !l.sample.Hotspot && gotNHS < wantNHS:
			out.Samples = append(out.Samples, l.sample)
			gotNHS++
		}
	}
	if gotHS < wantHS || gotNHS < wantNHS {
		return Split{}, fmt.Errorf(
			"quota not met after %d candidates: %d/%d hotspots, %d/%d non-hotspots (tune Style.RiskProb)",
			maxAttempts, gotHS, wantHS, gotNHS, wantNHS)
	}
	return out, nil
}

// labelCandidate synthesizes candidate idx of a split from its own seed
// and labels it.
func labelCandidate(cfg SuiteConfig, sim *lithosim.Simulator, spec Spec, split string, idx int) (Sample, error) {
	rng := rand.New(rand.NewSource(candidateSeed(cfg.Seed, spec.Name, split, idx)))
	clip, family, err := synthesizeClip(rng, cfg, spec.Style)
	if err != nil {
		return Sample{}, fmt.Errorf("candidate %d: %w", idx, err)
	}
	res, err := sim.Simulate(clip)
	if err != nil {
		return Sample{}, fmt.Errorf("candidate %d: %w", idx, err)
	}
	return Sample{Clip: clip, Hotspot: res.Hotspot, Family: family, PVBandArea: res.PVBandArea}, nil
}

// candidateSeed derives a stable per-candidate seed.
func candidateSeed(seed int64, bench, split string, idx int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%d", seed, bench, split, idx)
	v := h.Sum64()
	// splitmix64 finalizer for good bit diffusion.
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return int64(v)
}
