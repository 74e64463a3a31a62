package iccad

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/golitho/hsd/internal/geom"
)

func TestSnapAndPick(t *testing.T) {
	if snap(0) != 0 || snap(4) != 8 || snap(3) != 0 || snap(12) != 16 {
		t.Fatalf("snap wrong: %d %d %d %d", snap(0), snap(4), snap(3), snap(12))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		v := pick(rng, 40, 176)
		if v%Grid != 0 {
			t.Fatalf("pick returned off-grid %d", v)
		}
		if v < 40-Grid/2 || v > 176+Grid/2 {
			t.Fatalf("pick out of range: %d", v)
		}
	}
	if got := pick(rng, 50, 50); got != snap(50) {
		t.Fatalf("degenerate pick = %d", got)
	}
}

func TestStyleRanges(t *testing.T) {
	st := DefaultStyle()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		if w := st.width(rng, true); w > st.RiskWidth[1]+Grid/2 || w < st.RiskWidth[0]-Grid/2 {
			t.Fatalf("risky width %d outside %v", w, st.RiskWidth)
		}
		if s := st.space(rng, false); s > st.SafeSpace[1]+Grid/2 || s < st.SafeSpace[0]-Grid/2 {
			t.Fatalf("safe space %d outside %v", s, st.SafeSpace)
		}
		if g := st.gap(rng, true); g > st.RiskGap[1]+Grid/2 || g < st.RiskGap[0]-Grid/2 {
			t.Fatalf("risky gap %d outside %v", g, st.RiskGap)
		}
	}
}

func TestSynthesizeClipDeterminism(t *testing.T) {
	cfg := DefaultSuiteConfig(7)
	st := DefaultStyle()
	for seed := int64(0); seed < 20; seed++ {
		a, famA, err := synthesizeClip(rand.New(rand.NewSource(seed)), cfg, st)
		if err != nil {
			t.Fatal(err)
		}
		b, famB, err := synthesizeClip(rand.New(rand.NewSource(seed)), cfg, st)
		if err != nil {
			t.Fatal(err)
		}
		if famA != famB || len(a.Shapes) != len(b.Shapes) {
			t.Fatalf("seed %d: nondeterministic synthesis", seed)
		}
		for i := range a.Shapes {
			if a.Shapes[i] != b.Shapes[i] {
				t.Fatalf("seed %d: shape %d differs", seed, i)
			}
		}
	}
}

func TestSynthesizeClipGeometry(t *testing.T) {
	cfg := DefaultSuiteConfig(7)
	st := DefaultStyle()
	rng := rand.New(rand.NewSource(3))
	f := func() bool {
		clip, fam, err := synthesizeClip(rng, cfg, st)
		if err != nil || fam == "" {
			return false
		}
		if len(clip.Shapes) == 0 {
			return false
		}
		win := geom.R(0, 0, cfg.ClipNM, cfg.ClipNM)
		if clip.Window != win {
			return false
		}
		for _, s := range clip.Shapes {
			if s.Empty() || !win.ContainsRect(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSynthesizeClipFamilyCoverage(t *testing.T) {
	cfg := DefaultSuiteConfig(7)
	st := DefaultStyle()
	rng := rand.New(rand.NewSource(4))
	seen := make(map[string]bool)
	for i := 0; i < 300; i++ {
		_, fam, err := synthesizeClip(rng, cfg, st)
		if err != nil {
			t.Fatal(err)
		}
		seen[fam] = true
	}
	for _, fam := range []string{"linearray", "lineend", "jog", "contact", "mixed"} {
		if !seen[fam] {
			t.Errorf("family %q never generated", fam)
		}
	}
}

func TestSynthesizeClipNoFamilies(t *testing.T) {
	cfg := DefaultSuiteConfig(7)
	if _, _, err := synthesizeClip(rand.New(rand.NewSource(1)), cfg, Style{}); err == nil {
		t.Fatal("empty style accepted")
	}
}

func TestTranspose(t *testing.T) {
	in := []geom.Rect{geom.R(1, 2, 3, 8)}
	out := transpose(in)
	if out[0] != geom.R(2, 1, 8, 3) {
		t.Fatalf("transpose = %v", out[0])
	}
	back := transpose(out)
	if back[0] != in[0] {
		t.Fatal("transpose is not an involution")
	}
}

func TestCandidateSeedStable(t *testing.T) {
	a := candidateSeed(42, "B1", "train", 7)
	b := candidateSeed(42, "B1", "train", 7)
	if a != b {
		t.Fatal("candidateSeed not deterministic")
	}
	if candidateSeed(42, "B1", "train", 8) == a {
		t.Fatal("adjacent candidates share a seed")
	}
	if candidateSeed(42, "B2", "train", 7) == a {
		t.Fatal("different benchmarks share a seed")
	}
	if candidateSeed(43, "B1", "train", 7) == a {
		t.Fatal("different suite seeds share a seed")
	}
}

func TestGenerateSuiteSmall(t *testing.T) {
	cfg := SmallSuiteConfig(11)
	suite, err := GenerateSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(suite.Benchmarks) != len(cfg.Specs) {
		t.Fatalf("benchmarks = %d, want %d", len(suite.Benchmarks), len(cfg.Specs))
	}
	for i, b := range suite.Benchmarks {
		spec := cfg.Specs[i]
		hs, nhs := b.Train.Counts()
		if hs != spec.TrainHS || nhs != spec.TrainNHS {
			t.Errorf("%s train = %d/%d, want %d/%d", b.Name, hs, nhs, spec.TrainHS, spec.TrainNHS)
		}
		hs, nhs = b.Test.Counts()
		if hs != spec.TestHS || nhs != spec.TestNHS {
			t.Errorf("%s test = %d/%d, want %d/%d", b.Name, hs, nhs, spec.TestHS, spec.TestNHS)
		}
		for _, s := range b.Train.Samples {
			if len(s.Clip.Shapes) == 0 {
				t.Errorf("%s: sample with no shapes", b.Name)
			}
			if s.Family == "" {
				t.Errorf("%s: sample without family", b.Name)
			}
			if s.PVBandArea < 0 {
				t.Errorf("%s: negative PV band", b.Name)
			}
		}
	}
}

func TestGenerateSuiteDeterministic(t *testing.T) {
	cfg := SmallSuiteConfig(5)
	cfg.Specs = cfg.Specs[:1]
	cfg.Specs[0].TrainHS, cfg.Specs[0].TrainNHS = 5, 20
	cfg.Specs[0].TestHS, cfg.Specs[0].TestNHS = 3, 10

	a, err := GenerateSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	as, bs := a.Benchmarks[0].Train.Samples, b.Benchmarks[0].Train.Samples
	if len(as) != len(bs) {
		t.Fatal("lengths differ across runs")
	}
	for i := range as {
		if as[i].Hotspot != bs[i].Hotspot || as[i].Family != bs[i].Family ||
			len(as[i].Clip.Shapes) != len(bs[i].Clip.Shapes) {
			t.Fatalf("sample %d differs across identical runs", i)
		}
	}
}

func TestGenerateSuiteSeedsDiffer(t *testing.T) {
	mk := func(seed int64) *Suite {
		cfg := SmallSuiteConfig(seed)
		cfg.Specs = cfg.Specs[:1]
		cfg.Specs[0].TrainHS, cfg.Specs[0].TrainNHS = 4, 12
		cfg.Specs[0].TestHS, cfg.Specs[0].TestNHS = 2, 6
		s, err := GenerateSuite(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(1), mk(2)
	same := true
	for i, s := range a.Benchmarks[0].Train.Samples {
		o := b.Benchmarks[0].Train.Samples[i]
		if len(s.Clip.Shapes) != len(o.Clip.Shapes) {
			same = false
			break
		}
		for j := range s.Clip.Shapes {
			if s.Clip.Shapes[j] != o.Clip.Shapes[j] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical suites")
	}
}

func TestGenerateSuiteValidation(t *testing.T) {
	if _, err := GenerateSuite(SuiteConfig{Seed: 1}); err == nil {
		t.Fatal("empty spec list accepted")
	}
	cfg := SmallSuiteConfig(1)
	cfg.Specs[0].TrainHS = -1
	if _, err := GenerateSuite(cfg); err == nil {
		t.Fatal("negative quota accepted")
	}
	cfg = SmallSuiteConfig(1)
	cfg.Specs = []Spec{{Name: "Z", Style: DefaultStyle()}}
	if _, err := GenerateSuite(cfg); err == nil {
		t.Fatal("zero-size benchmark accepted")
	}
}

func TestGenerateSuiteQuotaFailure(t *testing.T) {
	cfg := SmallSuiteConfig(1)
	st := DefaultStyle()
	st.RiskProb = 0 // nearly no hotspots
	cfg.Specs = []Spec{{Name: "Z", Style: st, TrainHS: 50, TrainNHS: 1}}
	cfg.MaxAttemptsFactor = 2
	if _, err := GenerateSuite(cfg); err == nil {
		t.Fatal("unreachable quota did not error")
	}
}

func TestGenerateChip(t *testing.T) {
	st := DefaultStyle()
	chip, err := GenerateChip(3, 4096, st)
	if err != nil {
		t.Fatal(err)
	}
	if chip.NumShapes() == 0 {
		t.Fatal("empty chip")
	}
	if !geom.R(0, 0, 4096, 4096).ContainsRect(chip.Bounds()) {
		t.Fatalf("chip bounds %v exceed the die", chip.Bounds())
	}
	if _, err := GenerateChip(3, 0, st); err == nil {
		t.Fatal("zero edge accepted")
	}
	// Determinism.
	again, err := GenerateChip(3, 4096, st)
	if err != nil {
		t.Fatal(err)
	}
	if again.NumShapes() != chip.NumShapes() {
		t.Fatal("chip generation not deterministic")
	}
}

func TestSplitCounts(t *testing.T) {
	s := Split{Samples: []Sample{{Hotspot: true}, {Hotspot: false}, {Hotspot: true}}}
	hs, nhs := s.Counts()
	if hs != 2 || nhs != 1 {
		t.Fatalf("Counts = %d/%d, want 2/1", hs, nhs)
	}
}
