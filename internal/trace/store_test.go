package trace

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestConcurrentAppendRead hammers the store from writer goroutines
// while readers list and fetch traces; run under -race (the ci.sh trace
// gate does) to prove the locking is sound.
func TestConcurrentAppendRead(t *testing.T) {
	tr := New(Config{Capacity: 64})
	ctx := WithTracer(context.Background(), tr)

	const writers, perWriter, readers = 8, 200, 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, rec := range tr.Traces(16) {
					id, err := ParseTraceID(rec.TraceID)
					if err != nil {
						t.Errorf("stored trace has bad id %q", rec.TraceID)
						return
					}
					tr.Get(id)
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				wctx, root := Start(ctx, fmt.Sprintf("writer-%d", w))
				_, child := Start(wctx, "stage")
				child.SetAttrInt("i", i)
				child.End()
				if i%7 == 0 {
					root.SetFlag(FlagDegraded)
				}
				root.End()
			}
		}(w)
	}
	// Wait for writers, then stop readers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	go func() {
		// Writers are the first writers+0 Adds... simplest: poll kept count.
		for tr.Stats().Kept+tr.Stats().SampledOut < writers*perWriter {
			time.Sleep(time.Millisecond)
		}
		close(stop)
	}()
	<-done

	if got := len(tr.Traces(0)); got != 64 {
		t.Fatalf("store holds %d traces, want its capacity 64", got)
	}
	if tr.Stats().Kept != writers*perWriter {
		t.Fatalf("kept = %d, want %d (default sampler keeps everything)",
			tr.Stats().Kept, writers*perWriter)
	}
}

// TestChaosTailSampling drives a randomized mix of normal, slow,
// errored, degraded, shed, and panicked traces through a sampler
// configured to keep 20% of normal traffic, and proves every flagged
// trace survived while normal traffic was thinned at the configured
// rate. This is the acceptance property of the tail sampler: the
// interesting 0.1% is never lost.
func TestChaosTailSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 2000
	const rate = 0.20
	tr := New(Config{
		Capacity:      2 * n, // retention, not eviction, is under test
		SampleRate:    rate,
		SlowThreshold: 50 * time.Millisecond,
		Rand:          rng.Float64,
	})
	ctx := WithTracer(context.Background(), tr)

	flagged := map[TraceID]string{}
	normal := 0
	for i := 0; i < n; i++ {
		_, sp := Start(ctx, "req")
		kind := rng.Intn(10)
		switch kind {
		case 0:
			sp.SetFlag(FlagDegraded)
		case 1:
			sp.SetFlag(FlagShed)
		case 2:
			sp.SetFlag(FlagPanic)
		case 3:
			sp.SetError(errors.New("chaos"))
		}
		// Slow traces are classified by duration at finish time; the
		// wall clock advances too little between Start and End for real
		// slowness, so this case is exercised in TestTailSamplingKeepsFlagged
		// with the fake clock. Here kinds 0-3 are the chaos classes.
		sp.End()
		switch {
		case kind <= 3:
			flagged[sp.TraceID()] = [...]string{"degraded", "shed", "panic", "error"}[kind]
		default:
			normal++
		}
	}

	for id, kind := range flagged {
		if tr.Get(id) == nil {
			t.Fatalf("%s trace %v lost by tail sampler", kind, id)
		}
	}
	st := tr.Stats()
	keptNormal := st.Kept - int64(len(flagged))
	if keptNormal+st.SampledOut != int64(normal) {
		t.Fatalf("accounting: keptNormal=%d sampledOut=%d normal=%d",
			keptNormal, st.SampledOut, normal)
	}
	got := float64(keptNormal) / float64(normal)
	if got < rate-0.05 || got > rate+0.05 {
		t.Fatalf("normal traffic sampled at %.3f, configured %.2f", got, rate)
	}
}
