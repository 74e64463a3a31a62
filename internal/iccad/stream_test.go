package iccad

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/golitho/hsd/internal/faultinject"
	"github.com/golitho/hsd/internal/lithosim"
)

// referenceSplit is generateSplit as a loop anyone can check: label the
// candidates one at a time in index order, keep what the quotas still
// want, stop when both are met. It also reports how many candidates that
// consumed.
func referenceSplit(cfg SuiteConfig, sim *lithosim.Simulator, spec Spec, split string, wantHS, wantNHS int) (Split, int, error) {
	var out Split
	gotHS, gotNHS, consumed := 0, 0, 0
	maxAttempts := cfg.MaxAttemptsFactor * (wantHS + wantNHS)
	for ; consumed < maxAttempts && (gotHS < wantHS || gotNHS < wantNHS); consumed++ {
		s, err := labelCandidate(cfg, sim, spec, split, consumed)
		if err != nil {
			return Split{}, consumed, err
		}
		if s.Hotspot && gotHS < wantHS {
			out.Samples = append(out.Samples, s)
			gotHS++
		} else if !s.Hotspot && gotNHS < wantNHS {
			out.Samples = append(out.Samples, s)
			gotNHS++
		}
	}
	if gotHS < wantHS || gotNHS < wantNHS {
		return Split{}, consumed, fmt.Errorf(
			"quota not met after %d candidates: %d/%d hotspots, %d/%d non-hotspots (tune Style.RiskProb)",
			maxAttempts, gotHS, wantHS, gotNHS, wantNHS)
	}
	return out, consumed, nil
}

func newOracle(t *testing.T, cfg SuiteConfig) *lithosim.Simulator {
	t.Helper()
	sim, err := lithosim.New(cfg.Sim)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestGenerateSplitStopsAtQuota: on the four splits of the small suite, at
// 1, 2 and 8 workers, generateSplit returns the split the serial reference
// loop returns, and the oracle has run no more simulations than the
// candidates that loop consumed plus the in-flight window of labelAhead
// per worker. (The 256-wide
// batches this replaced ran 1024 simulations to consume 405 candidates.)
func TestGenerateSplitStopsAtQuota(t *testing.T) {
	cfg := SmallSuiteConfig(1)
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	for _, spec := range cfg.Specs {
		for _, sp := range []struct {
			name    string
			hs, nhs int
		}{{"train", spec.TrainHS, spec.TrainNHS}, {"test", spec.TestHS, spec.TestNHS}} {
			want, consumed, err := referenceSplit(cfg, newOracle(t, cfg), spec, sp.name, sp.hs, sp.nhs)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 8} {
				cfg.Workers = workers
				sim := newOracle(t, cfg)
				got, err := generateSplit(cfg, sim, spec, sp.name, sp.hs, sp.nhs)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s at %d workers: split differs from the serial reference", spec.Name, sp.name, workers)
				}
				if n := sim.Stats().Simulations; n < int64(consumed) || n > int64(consumed+labelAhead*workers) {
					t.Errorf("%s %s at %d workers: %d simulations for %d candidates consumed, want at most %d more",
						spec.Name, sp.name, workers, n, consumed, labelAhead*workers)
				}
			}
		}
	}
}

// TestGenerateSplitErrors: an oracle error at a candidate the split gets
// to is returned, the lowest index first however many workers failed at
// once, and running out of attempts still reports the quotas as the
// serial loop counts them.
func TestGenerateSplitErrors(t *testing.T) {
	defer faultinject.Reset()
	cfg := SmallSuiteConfig(1)
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	spec := cfg.Specs[0]
	injected := errors.New("injected")

	// One worker hits the site in index order, so the sixth hit is
	// candidate 5, well short of where the split would stop.
	cfg.Workers = 1
	faultinject.Set(lithosim.SimulateSite, faultinject.Fault{Err: injected, Skip: 5, Count: 1})
	_, err := generateSplit(cfg, newOracle(t, cfg), spec, "train", spec.TrainHS, spec.TrainNHS)
	if !errors.Is(err, injected) || !strings.HasPrefix(err.Error(), "candidate 5:") {
		t.Errorf("error at candidate 5: got %v", err)
	}

	// Every simulation fails, eight at a time: candidate 0's error wins.
	cfg.Workers = 8
	faultinject.Set(lithosim.SimulateSite, faultinject.Fault{Err: injected})
	_, err = generateSplit(cfg, newOracle(t, cfg), spec, "train", spec.TrainHS, spec.TrainNHS)
	if !errors.Is(err, injected) || !strings.HasPrefix(err.Error(), "candidate 0:") {
		t.Errorf("every candidate failing: got %v", err)
	}
	faultinject.Reset()

	// A quota out of reach: the same message, with the same counts.
	spec.Style.RiskProb = 0
	cfg.MaxAttemptsFactor = 2
	_, _, want := referenceSplit(cfg, newOracle(t, cfg), spec, "train", 50, 1)
	if want == nil || !strings.HasPrefix(want.Error(), "quota not met after 102 candidates:") {
		t.Fatalf("reference loop: %v", want)
	}
	for _, workers := range []int{1, 2, 8} {
		cfg.Workers = workers
		if _, err := generateSplit(cfg, newOracle(t, cfg), spec, "train", 50, 1); err == nil || err.Error() != want.Error() {
			t.Errorf("at %d workers: got %v, want %v", workers, err, want)
		}
	}
}
