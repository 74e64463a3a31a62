// Chaos kill-resume equivalence: the loop is "killed" (cycle aborted
// by an armed fault, engine closed, process state discarded) at every
// stage boundary and mid-label, then resumed from the WAL alone; the
// shipped model must be byte-identical to an uninterrupted run over the
// same mined candidates. This is the in-process half of the kill -9
// guarantee — scripts/learn_smoke.sh does the real-SIGKILL half.

package datengine

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/golitho/hsd/internal/faultinject"
	"github.com/golitho/hsd/internal/framelog"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/lithosim"
	"github.com/golitho/hsd/internal/telemetry"
)

// runMined opens an engine over a fresh WAL in dir and mines the
// standard candidate set into it.
func runMined(t *testing.T, dir string) *Engine {
	t.Helper()
	cfg := fastCfg(dir)
	cfg.BatchSize = 5
	e, err := Open(filepath.Join(dir, "learn.wal"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustIngest(t, e, 12)
	return e
}

func TestChaosLearnKillResume(t *testing.T) {
	defer faultinject.Reset()

	// Reference: one uninterrupted cycle.
	refDir := t.TempDir()
	ref := runMined(t, refDir)
	refRep, err := ref.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()
	if refRep.Outcome != OutcomeShipped {
		t.Fatalf("reference outcome = %+v", refRep)
	}
	refModel, err := os.ReadFile(refRep.ModelPath)
	if err != nil {
		t.Fatal(err)
	}

	crashes := []struct {
		name string
		site string
		skip int
	}{
		{"before-select", SelectSite, 0},
		{"label-first-sample", LabelSite, 0},
		{"label-mid-batch", LabelSite, 2},
		{"label-last-sample", LabelSite, 4},
		{"before-retrain", RetrainSite, 0},
		{"before-ship", ShipSite, 0},
	}
	for _, cr := range crashes {
		t.Run(cr.name, func(t *testing.T) {
			defer faultinject.Reset()
			dir := t.TempDir()
			e := runMined(t, dir)

			faultinject.Set(cr.site, faultinject.Fault{
				Err: errors.New("chaos: simulated crash"), Count: 1, Skip: cr.skip,
			})
			_, err := e.RunCycle(context.Background())
			if err == nil {
				t.Fatal("armed crash did not abort the cycle")
			}
			faultinject.Reset()
			// "kill -9": discard all in-memory state, reopen from disk.
			e.Close()

			cfg := fastCfg(dir)
			cfg.BatchSize = 5
			e2, err := Open(filepath.Join(dir, "learn.wal"), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			rep, err := e2.RunCycle(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if rep.Outcome != OutcomeShipped {
				t.Fatalf("resumed outcome = %+v", rep)
			}
			// Mid-label crashes must actually resume durable labels, not
			// redo them — otherwise this test proves nothing.
			if cr.site == LabelSite && cr.skip > 0 && rep.ResumedLabels != cr.skip {
				t.Fatalf("resumed %d labels, want %d durable before the crash", rep.ResumedLabels, cr.skip)
			}
			got, err := os.ReadFile(rep.ModelPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, refModel) {
				t.Fatalf("resumed model differs from uninterrupted run (%d vs %d bytes)", len(got), len(refModel))
			}
		})
	}
}

// TestChaosLearnRepeatedCrashes: several consecutive crashes over ONE
// WAL — every stage dies once before the cycle finally completes — and
// the shipped model still matches the uninterrupted run.
func TestChaosLearnRepeatedCrashes(t *testing.T) {
	defer faultinject.Reset()

	refDir := t.TempDir()
	ref := runMined(t, refDir)
	refRep, err := ref.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()
	refModel, err := os.ReadFile(refRep.ModelPath)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	e := runMined(t, dir)
	e.Close()

	script := []struct {
		site string
		skip int
	}{
		{SelectSite, 0},
		{LabelSite, 1}, // one label lands, crash before the second
		{LabelSite, 2}, // two more labels land, crash before the fifth
		{RetrainSite, 0},
		{ShipSite, 0},
	}
	cfg := fastCfg(dir)
	cfg.BatchSize = 5
	for i, step := range script {
		e, err := Open(filepath.Join(dir, "learn.wal"), cfg)
		if err != nil {
			t.Fatal(err)
		}
		faultinject.Set(step.site, faultinject.Fault{
			Err: errors.New("chaos: crash script"), Count: 1, Skip: step.skip,
		})
		_, err = e.RunCycle(context.Background())
		faultinject.Reset()
		if err == nil {
			t.Fatalf("script step %d did not crash", i)
		}
		e.Close()
	}

	e2, err := Open(filepath.Join(dir, "learn.wal"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	rep, err := e2.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != OutcomeShipped {
		t.Fatalf("final outcome = %+v", rep)
	}
	got, err := os.ReadFile(rep.ModelPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, refModel) {
		t.Fatal("model after 5 crash-resume generations differs from uninterrupted run")
	}
}

// TestChaosCancelMidLabel: context cancellation mid-label is a clean
// crash-equivalent abort — durable labels stand, nothing partial is
// journaled, and a resumed cycle finishes identically.
func TestChaosCancelMidLabel(t *testing.T) {
	refDir := t.TempDir()
	ref := runMined(t, refDir)
	refRep, err := ref.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()
	refModel, _ := os.ReadFile(refRep.ModelPath)

	dir := t.TempDir()
	cfg := fastCfg(dir)
	cfg.BatchSize = 5
	ctx, cancel := context.WithCancel(context.Background())
	labeled := 0
	inner := cfg.Oracle
	cfg.Oracle = func(octx context.Context, clip layout.Clip) (bool, error) {
		if err := octx.Err(); err != nil {
			return false, err
		}
		labeled++
		if labeled == 3 {
			cancel() // the "SIGKILL" arrives while sample 3 is in flight
			return false, octx.Err()
		}
		return inner(octx, clip)
	}
	e, err := Open(filepath.Join(dir, "learn.wal"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustIngest(t, e, 12)
	if _, err := e.RunCycle(ctx); err == nil {
		t.Fatal("cancelled cycle reported success")
	}
	e.Close()

	cfg2 := fastCfg(dir)
	cfg2.BatchSize = 5
	e2, err := Open(filepath.Join(dir, "learn.wal"), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	rep, err := e2.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(rep.ModelPath)
	if !bytes.Equal(got, refModel) {
		t.Fatal("model after mid-label cancellation differs from uninterrupted run")
	}
}

// labelCfg is fastCfg with the real litho-sim oracle, so faults armed at
// lithosim.SimulateSite reach labeling the way production meets them.
func labelCfg(t *testing.T, dir string, reg *telemetry.Registry) Config {
	t.Helper()
	sim, err := lithosim.New(lithosim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg(dir)
	cfg.Oracle = sim.LabelCtx
	cfg.Metrics = reg
	return cfg
}

// TestOracleFaultAbsorbed: one failed simulation costs one retry, not a
// quarantine; every member is labeled and the batch ships.
func TestOracleFaultAbsorbed(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	e, err := Open(filepath.Join(dir, "learn.wal"), labelCfg(t, dir, reg))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustIngest(t, e, 4)

	faultinject.Set(lithosim.SimulateSite, faultinject.Fault{Err: errors.New("chaos: transient"), Count: 1})
	rep, err := e.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != OutcomeShipped || rep.Labeled != 4 || rep.Quarantined != 0 {
		t.Fatalf("report = %+v, want 4 labeled and shipped", rep)
	}
	if got := faultinject.Fired(lithosim.SimulateSite); got != 1 {
		t.Fatalf("fault fired %d times, want 1", got)
	}
	if v := reg.Counter("learn_oracle_retries_total").Value(); v != 1 {
		t.Fatalf("learn_oracle_retries_total = %v, want 1", v)
	}
}

// TestOracleFaultPanicQuarantines: a simulation that panics on every
// call quarantines each member after all three attempts, with its
// fingerprint journaled; the engine survives and the next batch ships.
func TestOracleFaultPanicQuarantines(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	cfg := labelCfg(t, dir, nil)
	cfg.BatchSize = 3
	walPath := filepath.Join(dir, "learn.wal")
	e, err := Open(walPath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustIngest(t, e, 3)

	faultinject.Set(lithosim.SimulateSite, faultinject.Fault{Panic: "chaos: simulation exploded"})
	rep, err := e.RunCycle(context.Background())
	faultinject.Reset()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != OutcomeRejected || rep.Quarantined != 3 {
		t.Fatalf("report = %+v, want rejected with 3 quarantined", rep)
	}
	_, recs := loadWAL(t, walPath)
	var batch []layout.Fingerprint
	quarantined := map[layout.Fingerprint]Record{}
	for _, r := range recs {
		switch r.Kind {
		case RecBatch:
			batch = r.FPs
		case RecQuarantine:
			quarantined[r.FP] = r
		}
	}
	if len(quarantined) != len(batch) {
		t.Fatalf("%d quarantine records for a batch of %d", len(quarantined), len(batch))
	}
	for _, fp := range batch {
		r, ok := quarantined[fp]
		if !ok {
			t.Fatalf("member %x has no quarantine record", fp[:4])
		}
		if r.Attempts != 3 || !strings.Contains(r.Err, "oracle panic") {
			t.Fatalf("member %x quarantined after %d attempts with %q, want 3 and an oracle panic", fp[:4], r.Attempts, r.Err)
		}
	}

	mustIngest(t, e, 6)
	rep, err = e.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != OutcomeShipped || rep.BatchID != 1 || rep.Quarantined != 0 {
		t.Fatalf("follow-up report = %+v, want batch 1 shipped", rep)
	}
}

// TestWALResumeFromEveryFrameBoundary: the learn WAL of a real run,
// cut at every frame boundary and one byte past it (a torn frame),
// opens to the state its intact records replay to, and the loop then
// runs to the uninterrupted run's models and counters. A cut is what a
// kill between two appends, or during one, leaves; the resumed process
// mines the same clips again, and Ingest drops the ones the cut kept.
func TestWALResumeFromEveryFrameBoundary(t *testing.T) {
	const mined = 10
	// run mines into e, cycles until the queue is empty and returns
	// the bytes of each model it shipped, by batch.
	run := func(t *testing.T, e *Engine) map[int][]byte {
		t.Helper()
		mustIngest(t, e, mined)
		shipped := map[int][]byte{}
		for {
			rep, err := e.RunCycle(context.Background())
			if errors.Is(err, ErrNoCandidates) {
				return shipped
			}
			if err != nil {
				t.Fatal(err)
			}
			if rep.Outcome != OutcomeShipped {
				t.Fatalf("batch %d: outcome %+v", rep.BatchID, rep)
			}
			if shipped[rep.BatchID], err = os.ReadFile(rep.ModelPath); err != nil {
				t.Fatal(err)
			}
		}
	}
	snapshot := func(e *Engine) [5]int {
		c, n, s, r, p := e.Snapshot()
		return [5]int{c, n, s, r, p}
	}

	refDir := t.TempDir()
	full := filepath.Join(refDir, "learn.wal")
	ref, err := Open(full, fastCfg(refDir))
	if err != nil {
		t.Fatal(err)
	}
	wantModels := run(t, ref)
	wantSnap := snapshot(ref)
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	if len(wantModels) < 2 {
		t.Fatalf("uninterrupted run shipped %d models, want several batches", len(wantModels))
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	_, records := loadWAL(t, full)
	// ends[k] is where the header and the first k records end.
	var ends []int64
	r := bytes.NewReader(data)
	for magic := walFormat.Header; ; magic = walFormat.Record {
		if _, err := framelog.ReadFrame(r, magic); err != nil {
			break
		}
		ends = append(ends, int64(len(data)-r.Len()))
	}
	if len(ends) != len(records)+1 || ends[len(ends)-1] != int64(len(data)) {
		t.Fatalf("%d frames ending at %v in %d bytes, want a header and %d records", len(ends), ends, len(data), len(records))
	}

	for k, end := range ends {
		for _, torn := range []int64{0, 1} {
			cut := end + torn
			if cut > int64(len(data)) {
				continue
			}
			dir := t.TempDir()
			path := filepath.Join(dir, "learn.wal")
			if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			e, err := Open(path, fastCfg(dir))
			if err != nil {
				t.Fatalf("cut at %d: %v", cut, err)
			}
			if tail := e.wal.Tail(); tail.Offset != end || tail.Discarded != torn {
				t.Fatalf("cut at %d: tail %+v, want offset %d with %d bytes discarded", cut, tail, end, torn)
			}
			if want := Replay(records[:k]); !reflect.DeepEqual(e.state, want) {
				t.Fatalf("cut at %d: opened to state %+v, want the replay of its %d intact records %+v", cut, e.state, k, want)
			}
			models := run(t, e)
			if got := snapshot(e); got != wantSnap {
				t.Fatalf("cut at %d: final snapshot %v, want %v", cut, got, wantSnap)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			for id, got := range models {
				if !bytes.Equal(got, wantModels[id]) {
					t.Fatalf("cut at %d: batch %d shipped a model of %d bytes unlike the uninterrupted run's %d", cut, id, len(got), len(wantModels[id]))
				}
			}
			_, after := loadWAL(t, path)
			last, err := os.ReadFile(Replay(after).LastModel)
			if err != nil || !bytes.Equal(last, wantModels[len(wantModels)-1]) {
				t.Fatalf("cut at %d: the last shipped model (%v) is not the uninterrupted run's", cut, err)
			}
		}
	}
}
