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

	"github.com/golitho/hsd/internal/trace"
)

// updateSimulateGolden rewrites testdata/simulate_golden.json from the
// running code. The committed file was written at the commit where
// SimulateCtx still had a serial corner loop (Config.CornerWorkers: 1)
// beside the pooled one; regenerating it later defeats its purpose,
// which is to pin the serial loop's Results across its deletion.
var updateSimulateGolden = flag.Bool("update-simulate-golden", false, "rewrite the simulation golden (see comment)")

const simulateGoldenPath = "testdata/simulate_golden.json"

// TestSimulateParallelEquivalence: the corner loop reproduces, for 12
// seeded clips, the Results the seed's serial loop gave: same defects in
// the same order, same PV-band area. (The name dates from the pooled
// corner fan-out that stood between the two.)
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
	for i, got := range simulateAll() {
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("clip %d: result diverged from the serial loop\n got %+v\nwant %+v", i, got, want[i])
		}
	}
}

// TestSimulateParallelConcurrentUse: one simulator shared by many goroutines
// (the outer concurrency the dataset generator uses), each computing in
// scratch lent by the simulator's pool, must stay correct under -race.
func TestSimulateParallelConcurrentUse(t *testing.T) {
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
			for rep := 0; rep < 4; rep++ {
				res, err := s.Simulate(clip)
				if err != nil {
					errs[i] = err
					return
				}
				if !reflect.DeepEqual(res, want) {
					errs[i] = errMismatch
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
}

// TestSimulateCtxCancelledParallel: a pre-cancelled context interrupts
// the simulation with the wrapped error and no partial result, and the
// lithosim.simulate span carries the error, which is what makes the tail
// sampler keep the trace.
func TestSimulateCtxCancelledParallel(t *testing.T) {
	s := newSim(t)
	clip := randomTestClip(t, rand.New(rand.NewSource(53)))
	tr := trace.New(trace.Config{Capacity: 1, Shards: 1})
	ctx, cancel := context.WithCancel(trace.WithTracer(context.Background(), tr))
	cancel()
	ctx, root := trace.Start(ctx, "root")
	res, err := s.SimulateCtx(ctx, clip)
	root.End()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "interrupted at corner") {
		t.Fatalf("error %q lacks corner context", err)
	}
	if res.Hotspot || res.Defects != nil || res.PVBandArea != 0 {
		t.Fatalf("partial result returned: %+v", res)
	}
	rec := tr.Traces(1)[0]
	spanErr := ""
	for _, sp := range rec.Spans {
		if sp.Name == "lithosim.simulate" {
			spanErr = sp.Error
		}
	}
	if spanErr != err.Error() {
		t.Fatalf("lithosim.simulate span error %q, want %q", spanErr, err)
	}
	if flags := strings.Join(rec.Flags, ","); !strings.Contains(flags, "error") {
		t.Fatalf("trace flags %q lack error", flags)
	}
}
