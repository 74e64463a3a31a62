package datengine

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/resilience"
	"github.com/golitho/hsd/internal/telemetry"
)

// fpHot is the test ground truth: a content-keyed verdict so any
// process, any order, agrees on every clip's label.
func fpHot(clip layout.Clip) bool {
	fp := clip.Translate().Fingerprint()
	return fp[0]%2 == 0
}

// writeModel is the deterministic test trainer artifact: gob of the
// batch ID and the labeled set, so identical training inputs produce
// identical bytes — the same contract the real trainer meets via
// seeded, checkpointed training.
func writeModel(dir string, batchID int, labeled []core.LabeledClip) (string, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(struct {
		BatchID int
		Labeled []core.LabeledClip
	}{batchID, labeled}); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("model-%03d.gob", batchID))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// fastCfg is a test Config with instant backoff and a breaker that
// cools down in microseconds, so failure-path tests stay fast.
func fastCfg(dir string) Config {
	return Config{
		Detector:       "test",
		BatchSize:      4,
		OracleDeadline: time.Second,
		OracleAttempts: 3,
		OracleRetry: resilience.RetryConfig{
			BaseDelay: time.Microsecond,
			MaxDelay:  10 * time.Microsecond,
		},
		Breaker: resilience.BreakerConfig{
			FailureThreshold: 1000,
			OpenTimeout:      time.Millisecond,
		},
		Oracle: func(ctx context.Context, clip layout.Clip) (bool, error) {
			return fpHot(clip), nil
		},
		Train: func(ctx context.Context, batchID int, labeled []core.LabeledClip) (string, error) {
			return writeModel(dir, batchID, labeled)
		},
		Ship: func(ctx context.Context, batchID int, modelPath string) error {
			return nil
		},
	}
}

func mustIngest(t *testing.T, e *Engine, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := e.Ingest(testClip(i), 0.5, "scan", "low-conf"); err != nil {
			t.Fatal(err)
		}
	}
}

func TestIngestDedupe(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(filepath.Join(dir, "learn.wal"), fastCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	ok, err := e.Ingest(testClip(0), 0.5, "scan", "low-conf")
	if err != nil || !ok {
		t.Fatalf("first ingest: ok=%v err=%v", ok, err)
	}
	// The same geometry at a different position canonicalizes to the
	// same fingerprint and must dedupe.
	shifted := testClip(0)
	d := geom.Pt(73, 31)
	for i := range shifted.Shapes {
		shifted.Shapes[i] = shifted.Shapes[i].Translate(d)
	}
	shifted.Window = shifted.Window.Translate(d)
	shifted.Core = shifted.Core.Translate(d)
	ok, err = e.Ingest(shifted, 0.6, "serve", "spot-miss")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("translated duplicate was not deduplicated")
	}
	if n := e.PendingCandidates(); n != 1 {
		t.Fatalf("pending = %d, want 1", n)
	}
}

func TestIngestConcurrent(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(filepath.Join(dir, "learn.wal"), fastCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	const unique = 40
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < unique; i++ {
				if _, err := e.Ingest(testClip(i), 0.5, "scan", fmt.Sprintf("w%d", w)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := e.PendingCandidates(); n != unique {
		t.Fatalf("pending = %d, want %d", n, unique)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs := loadWAL(t, filepath.Join(dir, "learn.wal"))
	if s := Replay(recs); len(s.Candidates) != unique {
		t.Fatalf("replayed candidates = %d, want %d", len(s.Candidates), unique)
	}
}

func TestRunCycleFull(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	cfg := fastCfg(dir)
	cfg.Metrics = reg
	walPath := filepath.Join(dir, "learn.wal")
	e, err := Open(walPath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustIngest(t, e, 10)

	rep, err := e.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != OutcomeShipped {
		t.Fatalf("outcome = %q, want shipped: %+v", rep.Outcome, rep)
	}
	if rep.Selected != 4 || rep.Labeled != 4 || rep.Quarantined != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Hot+rep.Cold != rep.Labeled {
		t.Fatalf("verdict counts don't add up: %+v", rep)
	}
	if _, err := os.Stat(rep.ModelPath); err != nil {
		t.Fatalf("model artifact missing: %v", err)
	}

	// Second cycle consumes 4 more of the remaining 6.
	rep2, err := e.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.BatchID != 1 || rep2.Selected != 4 {
		t.Fatalf("second cycle report = %+v", rep2)
	}
	if n := e.PendingCandidates(); n != 2 {
		t.Fatalf("pending after two cycles = %d, want 2", n)
	}
	e.Close()

	// The counters moved.
	if v := reg.Counter("learn_batches_total", telemetry.L("outcome", OutcomeShipped)).Value(); v != 2 {
		t.Fatalf("learn_batches_total{shipped} = %v, want 2", v)
	}

	// Replayed state agrees.
	_, recs := loadWAL(t, walPath)
	s := Replay(recs)
	if s.Shipped != 2 || s.Pending != nil || len(s.Consumed) != 8 {
		t.Fatalf("replayed state: shipped=%d pending=%v consumed=%d", s.Shipped, s.Pending, len(s.Consumed))
	}
}

func TestRunCycleNoCandidates(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(filepath.Join(dir, "learn.wal"), fastCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.RunCycle(context.Background()); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("err = %v, want ErrNoCandidates", err)
	}
}

// TestQuarantinePoisonSample: an oracle that permanently fails on one
// clip must quarantine that member after its attempt budget and still
// ship the rest of the batch — the loop makes progress.
func TestQuarantinePoisonSample(t *testing.T) {
	dir := t.TempDir()
	cfg := fastCfg(dir)
	cfg.BatchSize = 6
	var poison layout.Fingerprint
	// Poison the fingerprint-smallest candidate so it is deterministic
	// regardless of which members k-center picks.
	cfg.Oracle = func(ctx context.Context, clip layout.Clip) (bool, error) {
		if clip.Translate().Fingerprint() == poison {
			return false, errors.New("injected permanent failure")
		}
		return fpHot(clip), nil
	}
	var trained []core.LabeledClip
	cfg.Train = func(ctx context.Context, batchID int, labeled []core.LabeledClip) (string, error) {
		trained = labeled
		return writeModel(dir, batchID, labeled)
	}
	e, err := Open(filepath.Join(dir, "learn.wal"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustIngest(t, e, 6)
	e.mu.Lock()
	poison = e.state.Available()[0].FP
	e.mu.Unlock()

	rep, err := e.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != OutcomeShipped {
		t.Fatalf("outcome = %q: %+v", rep.Outcome, rep)
	}
	if rep.Quarantined != 1 || rep.Labeled != 5 {
		t.Fatalf("report = %+v, want 1 quarantined, 5 labeled", rep)
	}
	if len(trained) != 5 {
		t.Fatalf("trainer saw %d samples, want 5", len(trained))
	}
	for _, lc := range trained {
		if lc.Clip.Translate().Fingerprint() == poison {
			t.Fatal("quarantined sample leaked into the training set")
		}
	}
}

// TestQuarantineOraclePanic: a panicking oracle is contained like an
// error — recovered, retried, quarantined — never fatal.
func TestQuarantineOraclePanic(t *testing.T) {
	dir := t.TempDir()
	cfg := fastCfg(dir)
	cfg.BatchSize = 3
	cfg.Oracle = func(ctx context.Context, clip layout.Clip) (bool, error) {
		panic("chaos: oracle exploded")
	}
	e, err := Open(filepath.Join(dir, "learn.wal"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustIngest(t, e, 3)
	rep, err := e.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != OutcomeRejected || rep.Quarantined != 3 {
		t.Fatalf("report = %+v, want rejected with 3 quarantined", rep)
	}
	// The loop is not wedged: new candidates feed a fresh batch.
	mustIngest(t, e, 6)
	cfg2 := fastCfg(dir)
	// (restore a working oracle on the same engine via the next cycle)
	e.cfg.Oracle = cfg2.Oracle
	rep2, err := e.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Outcome != OutcomeShipped || rep2.BatchID != 1 {
		t.Fatalf("follow-up report = %+v", rep2)
	}
}

// TestShipRejectedIsTerminal: a gate rejection journals the batch as
// rejected and the loop moves on; a transient ship failure aborts the
// cycle and the SAME batch resumes.
func TestShipRejectedIsTerminal(t *testing.T) {
	dir := t.TempDir()
	cfg := fastCfg(dir)
	cfg.Ship = func(ctx context.Context, batchID int, modelPath string) error {
		return fmt.Errorf("%w: recall dropped", ErrShipRejected)
	}
	e, err := Open(filepath.Join(dir, "learn.wal"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustIngest(t, e, 4)
	rep, err := e.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != OutcomeRejected {
		t.Fatalf("outcome = %q, want rejected", rep.Outcome)
	}
	if _, _, _, rejected, pending := e.Snapshot(); rejected != 1 || pending != -1 {
		t.Fatalf("rejected=%d pending=%d, want 1 and none", rejected, pending)
	}
}

func TestShipTransientFailureResumesSameBatch(t *testing.T) {
	dir := t.TempDir()
	cfg := fastCfg(dir)
	fail := true
	cfg.Ship = func(ctx context.Context, batchID int, modelPath string) error {
		if fail {
			return errors.New("registry briefly unavailable")
		}
		return nil
	}
	e, err := Open(filepath.Join(dir, "learn.wal"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustIngest(t, e, 4)
	if _, err := e.RunCycle(context.Background()); err == nil {
		t.Fatal("transient ship failure did not abort the cycle")
	}
	_, _, _, _, pending := e.Snapshot()
	if pending != 0 {
		t.Fatalf("pending batch = %d, want batch 0 still pending", pending)
	}
	fail = false
	rep, err := e.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.BatchID != 0 || rep.Outcome != OutcomeShipped {
		t.Fatalf("resumed report = %+v, want batch 0 shipped", rep)
	}
	if rep.ResumedLabels != rep.Selected {
		t.Fatalf("resume relabeled: %+v (labels were durable)", rep)
	}
}

// TestEngineReopen: closing and reopening the engine replays the WAL
// into the same position.
func TestEngineReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := fastCfg(dir)
	walPath := filepath.Join(dir, "learn.wal")
	e, err := Open(walPath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustIngest(t, e, 5)
	if _, err := e.RunCycle(context.Background()); err != nil {
		t.Fatal(err)
	}
	e.Close()

	e2, err := Open(walPath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	cands, consumed, shipped, _, pending := e2.Snapshot()
	if cands != 5 || consumed != 4 || shipped != 1 || pending != -1 {
		t.Fatalf("reopened snapshot: cands=%d consumed=%d shipped=%d pending=%d",
			cands, consumed, shipped, pending)
	}
	if n := e2.PendingCandidates(); n != 1 {
		t.Fatalf("pending candidates = %d, want 1", n)
	}
}
