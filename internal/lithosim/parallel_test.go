package lithosim

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/golitho/hsd/internal/tensor"
	"github.com/golitho/hsd/internal/trace"
)

// updateSimulateGolden rewrites testdata/simulate_golden.json from the
// running code. The committed file was written at the commit where
// SimulateCtx still had a serial corner loop (Config.CornerWorkers: 1)
// beside the pooled one; regenerating it later defeats its purpose,
// which is to pin the serial loop's Results across its deletion.
var updateSimulateGolden = flag.Bool("update-simulate-golden", false, "rewrite the simulation golden (see comment)")

const simulateGoldenPath = "testdata/simulate_golden.json"

// kernelWidths are the kernel-pool parallelisms the corner loop is held
// to: inline, the bench box's two cores, and more executors than corners.
var kernelWidths = []int{1, 2, 8}

// withKernelWidth runs fn with the process-wide kernel pool at total
// parallelism n, which is what sets the corner loop's width.
func withKernelWidth(t *testing.T, n int, fn func()) {
	t.Helper()
	tensor.SetDefaultWorkers(n)
	defer tensor.SetDefaultWorkers(0)
	fn()
}

// TestSimulateParallelEquivalence: at every kernel-pool width the one corner loop
// reproduces, for 12 seeded clips, the Results the deleted serial loop
// gave: same defects in the same order, same PV-band area.
func TestSimulateParallelEquivalence(t *testing.T) {
	s := newSim(t)
	simulateAll := func() []Result {
		rng := rand.New(rand.NewSource(51))
		out := make([]Result, 12)
		for i := range out {
			res, err := s.Simulate(randomTestClip(t, rng))
			if err != nil {
				t.Fatal(err)
			}
			out[i] = res
		}
		return out
	}
	if *updateSimulateGolden {
		b, err := json.MarshalIndent(simulateAll(), "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(simulateGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(simulateGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []Result
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	hot := 0
	for _, r := range want {
		if r.Hotspot {
			hot++
		}
	}
	if len(want) != 12 || hot == 0 || hot == len(want) {
		t.Fatalf("golden has %d results, %d hot: the fixture is degenerate", len(want), hot)
	}
	for _, width := range kernelWidths {
		withKernelWidth(t, width, func() {
			for i, got := range simulateAll() {
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("width %d clip %d: result diverged from the serial loop\n got %+v\nwant %+v",
						width, i, got, want[i])
				}
			}
		})
	}
}

// TestSimulateParallelConcurrentUse: one simulator shared by many goroutines
// (the outer concurrency the dataset generator uses), each fanning its
// corners over the one kernel pool, must stay correct under -race.
func TestSimulateParallelConcurrentUse(t *testing.T) {
	withKernelWidth(t, 4, func() {
		s := newSim(t)
		clip := randomTestClip(t, rand.New(rand.NewSource(52)))
		want, err := s.Simulate(clip)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, 8)
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := s.Simulate(clip)
				if err != nil {
					errs[i] = err
					return
				}
				if !reflect.DeepEqual(res, want) {
					errs[i] = errMismatch
				}
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("goroutine %d: %v", i, err)
			}
		}
	})
}

// TestSimulateCtxCancelledParallel: at every width a pre-cancelled context
// interrupts the simulation with the same wrapped error and no partial
// result, and the lithosim.simulate span carries the error, which is
// what makes the tail sampler keep the trace.
func TestSimulateCtxCancelledParallel(t *testing.T) {
	s := newSim(t)
	clip := randomTestClip(t, rand.New(rand.NewSource(53)))
	for _, width := range kernelWidths {
		withKernelWidth(t, width, func() {
			tr := trace.New(trace.Config{Capacity: 1, Shards: 1})
			ctx, cancel := context.WithCancel(trace.WithTracer(context.Background(), tr))
			cancel()
			ctx, root := trace.Start(ctx, "root")
			res, err := s.SimulateCtx(ctx, clip)
			root.End()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("width %d: err = %v, want context.Canceled", width, err)
			}
			if !strings.Contains(err.Error(), "interrupted at corner") {
				t.Fatalf("width %d: error %q lacks corner context", width, err)
			}
			if res.Hotspot || res.Defects != nil || res.PVBandArea != 0 {
				t.Fatalf("width %d: partial result returned: %+v", width, res)
			}
			rec := tr.Traces(1)[0]
			spanErr := ""
			for _, sp := range rec.Spans {
				if sp.Name == "lithosim.simulate" {
					spanErr = sp.Error
				}
			}
			if spanErr != err.Error() {
				t.Fatalf("width %d: lithosim.simulate span error %q, want %q", width, spanErr, err)
			}
			if flags := strings.Join(rec.Flags, ","); !strings.Contains(flags, "error") {
				t.Fatalf("width %d: trace flags %q lack error", width, flags)
			}
		})
	}
}
