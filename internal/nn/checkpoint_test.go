package nn

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/golitho/hsd/internal/faultinject"
)

// ckptNet builds the architecture used across checkpoint tests: it
// includes dropout so RNG-state capture is exercised.
func ckptNet() *Network {
	return NewNetwork(
		NewDense(6, 8), NewReLU(8),
		NewDropout(8, 0.3, 42),
		NewDense(8, 2),
	)
}

// ckptData synthesizes a deterministic two-blob training set.
func ckptData(n int) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(7))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		row := make([]float64, 6)
		label := i % 2
		for j := range row {
			row[j] = rng.NormFloat64()*0.4 + float64(label)
		}
		x[i], y[i] = row, label
	}
	return x, y
}

// ckptConfig is the shared training config; Adam + LR step decay so
// both optimizer slots and the decayed rate must survive the round
// trip for equivalence to hold.
func ckptConfig(ck Checkpointer) TrainConfig {
	return TrainConfig{
		Epochs:          9,
		BatchSize:       8,
		Optimizer:       NewAdam(5e-3),
		Seed:            3,
		LRStepEvery:     3,
		LRStepFactor:    0.5,
		Checkpointer:    ck,
		CheckpointEvery: 2,
	}
}

// saveBytes serializes a network in memory for byte-level comparison.
func saveBytes(t *testing.T, net *Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, net); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

// TestKillResumeEquivalence is the core crash-tolerance contract: a run
// killed at several epochs via fault injection and resumed from the
// newest on-disk checkpoint must produce a byte-identical saved model
// to the uninterrupted run.
func TestKillResumeEquivalence(t *testing.T) {
	x, y := ckptData(40)

	ref := ckptNet()
	refHist, err := Fit(ref, x, y, ckptConfig(nil))
	if err != nil {
		t.Fatalf("reference Fit: %v", err)
	}
	want := saveBytes(t, ref)

	for _, killEpoch := range []int{2, 3, 5, 8} {
		t.Run(checkpointName(killEpoch), func(t *testing.T) {
			defer faultinject.Reset()
			dir := t.TempDir()

			// Phase 1: train until the injected crash at killEpoch.
			errBoom := errors.New("boom")
			faultinject.Set(TrainEpochSite, faultinject.Fault{Err: errBoom, Skip: killEpoch - 1, Count: 1})
			net1 := ckptNet()
			_, err := Fit(net1, x, y, ckptConfig(&DirCheckpointer{Dir: dir}))
			if !errors.Is(err, errBoom) {
				t.Fatalf("killed run: got err %v, want injected crash", err)
			}

			// Phase 2: resume from whatever the crash left on disk. A
			// kill before the first persist (epoch 2 with cadence 2)
			// leaves nothing: recovery is a fresh start, which must
			// still converge to the same bytes.
			path, ck, err := LatestCheckpoint(dir)
			if err != nil {
				t.Fatalf("LatestCheckpoint: %v", err)
			}
			if ck == nil && killEpoch > 2 {
				t.Fatalf("no checkpoint found after crash at epoch %d", killEpoch)
			}
			// CheckpointEvery=2: the newest persisted epoch is the last
			// even epoch (or the final one) before the kill.
			if ck != nil && ck.Epoch >= killEpoch {
				t.Fatalf("checkpoint %s at epoch %d, but run died entering epoch %d", path, ck.Epoch, killEpoch)
			}
			net2 := ckptNet()
			cfg := ckptConfig(&DirCheckpointer{Dir: dir})
			cfg.Resume = ck
			hist, err := Fit(net2, x, y, cfg)
			if err != nil {
				t.Fatalf("resumed Fit: %v", err)
			}
			from := 0
			if ck != nil {
				from = ck.Epoch
			}
			if got := saveBytes(t, net2); !bytes.Equal(got, want) {
				t.Errorf("resumed model differs from uninterrupted run (kill at epoch %d, resumed from %d)", killEpoch, from)
			}
			if len(hist) != len(refHist) {
				t.Fatalf("resumed history has %d epochs, want %d", len(hist), len(refHist))
			}
			for i := range hist {
				if hist[i].Epoch != refHist[i].Epoch ||
					math.Abs(hist[i].Loss-refHist[i].Loss) > 0 ||
					math.Abs(hist[i].Acc-refHist[i].Acc) > 0 {
					t.Errorf("epoch %d stats differ: resumed %+v, reference %+v", i+1, hist[i], refHist[i])
				}
			}
		})
	}
}

// TestStopResumeEquivalence covers the graceful-interrupt path: a run
// cancelled between epochs cuts a final checkpoint, and resuming from
// it reproduces the uninterrupted model exactly.
func TestStopResumeEquivalence(t *testing.T) {
	x, y := ckptData(40)

	ref := ckptNet()
	if _, err := Fit(ref, x, y, ckptConfig(nil)); err != nil {
		t.Fatalf("reference Fit: %v", err)
	}
	want := saveBytes(t, ref)

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cfg := ckptConfig(&DirCheckpointer{Dir: dir})
	// Cancel mid-run from the verbose hook: it fires at the end of an
	// epoch, so the next boundary check observes the cancellation.
	cfg.Verbose = func(format string, args ...any) {
		if len(args) > 0 {
			if e, ok := args[0].(int); ok && e == 5 {
				cancel()
			}
		}
	}
	net1 := ckptNet()
	hist, err := FitCtx(ctx, net1, x, y, cfg)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("cancelled run: got err %v, want ErrInterrupted", err)
	}
	if len(hist) != 5 {
		t.Fatalf("cancelled run returned %d epochs of history, want 5", len(hist))
	}

	// The SIGTERM-style final cut must exist even though epoch 5 is not
	// on the CheckpointEvery=2 cadence.
	_, ck, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatalf("LatestCheckpoint: %v", err)
	}
	if ck == nil || ck.Epoch != 5 {
		t.Fatalf("final checkpoint epoch = %v, want 5", ck)
	}

	net2 := ckptNet()
	cfg2 := ckptConfig(nil)
	cfg2.Resume = ck
	if _, err := Fit(net2, x, y, cfg2); err != nil {
		t.Fatalf("resumed Fit: %v", err)
	}
	if got := saveBytes(t, net2); !bytes.Equal(got, want) {
		t.Error("resumed model differs from uninterrupted run after graceful stop")
	}
}

// TestResumeRejectsMismatch guards the determinism contract's
// preconditions.
func TestResumeRejectsMismatch(t *testing.T) {
	x, y := ckptData(16)
	dir := t.TempDir()
	cfg := ckptConfig(&DirCheckpointer{Dir: dir})
	cfg.Epochs = 4
	if _, err := Fit(ckptNet(), x, y, cfg); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	_, ck, err := LatestCheckpoint(dir)
	if err != nil || ck == nil {
		t.Fatalf("LatestCheckpoint: %v %v", ck, err)
	}

	bad := ckptConfig(nil)
	bad.Epochs = 4
	bad.Seed = 99
	bad.Resume = ck
	if _, err := Fit(ckptNet(), x, y, bad); err == nil {
		t.Error("resume with mismatched seed succeeded, want error")
	}

	short := ckptConfig(nil)
	short.Epochs = 2
	short.Resume = ck
	if _, err := Fit(ckptNet(), x, y, short); err == nil {
		t.Error("resume past configured epochs succeeded, want error")
	}

	wrongArch := NewNetwork(NewDense(6, 4), NewReLU(4), NewDense(4, 2))
	arch := ckptConfig(nil)
	arch.Epochs = 4
	arch.Resume = ck
	if _, err := Fit(wrongArch, x, y, arch); err == nil {
		t.Error("resume into a different architecture succeeded, want error")
	}

	sgd := ckptConfig(nil)
	sgd.Epochs = 4
	sgd.Optimizer = &SGD{LR: 0.1}
	sgd.Resume = ck
	if _, err := Fit(ckptNet(), x, y, sgd); err == nil {
		t.Error("resume with a different optimizer kind succeeded, want error")
	}
}

// TestNonFiniteHaltsAndCheckpoints blows up the learning rate mid-run
// via step decay and asserts the NaN guard halts with the last good
// epoch preserved on disk.
func TestNonFiniteHaltsAndCheckpoints(t *testing.T) {
	x, y := ckptData(32)
	dir := t.TempDir()
	cfg := TrainConfig{
		Epochs:    8,
		BatchSize: 8,
		Optimizer: &SGD{LR: 1e-3},
		Seed:      3,
		// After epoch 3 the LR explodes; the following epochs diverge
		// to overflow and the guard must catch it before Step.
		LRStepEvery:     3,
		LRStepFactor:    1e150,
		Checkpointer:    &DirCheckpointer{Dir: dir, Keep: 10},
		CheckpointEvery: 1,
	}
	net := ckptNet()
	hist, err := Fit(net, x, y, cfg)
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("got err %v, want ErrNonFinite", err)
	}
	if len(hist) < 3 {
		t.Fatalf("halted before the LR explosion: %d epochs", len(hist))
	}
	_, ck, lerr := LatestCheckpoint(dir)
	if lerr != nil {
		t.Fatalf("LatestCheckpoint: %v", lerr)
	}
	if ck == nil || ck.Epoch != len(hist) {
		t.Fatalf("last good checkpoint = %v, want epoch %d", ck, len(hist))
	}
	// A pre-explosion checkpoint must be finite and resumable. The last
	// good one carries the exploded LR (captured post-decay, by design),
	// so resume from the epoch before the decay fired.
	pre, err := LoadCheckpointFile(filepath.Join(dir, checkpointName(2)))
	if err != nil {
		t.Fatalf("load pre-explosion checkpoint: %v", err)
	}
	net2 := ckptNet()
	cfg2 := cfg
	cfg2.Optimizer = &SGD{LR: 1e-3}
	cfg2.LRStepFactor = 0.5
	cfg2.Checkpointer = nil
	cfg2.Resume = pre
	if _, err := Fit(net2, x, y, cfg2); err != nil {
		t.Fatalf("resume from pre-NaN checkpoint: %v", err)
	}
	for _, l := range net2.Layers {
		for _, p := range l.Params() {
			for _, v := range p.W.Data {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatal("resumed network contains non-finite weights")
				}
			}
		}
	}
}

// TestCheckpointTornWriteFallback corrupts the newest checkpoint at
// every byte boundary (truncation) and asserts LatestCheckpoint falls
// back to the previous good one with a descriptive error. That every
// bit flip is also a load error is framelog's suite.
func TestCheckpointTornWriteFallback(t *testing.T) {
	x, y := ckptData(16)
	dir := t.TempDir()
	cfg := ckptConfig(&DirCheckpointer{Dir: dir, Keep: 2})
	cfg.Epochs = 4
	cfg.CheckpointEvery = 2
	if _, err := Fit(ckptNet(), x, y, cfg); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	newest := filepath.Join(dir, checkpointName(4))
	prev := filepath.Join(dir, checkpointName(2))
	full, err := os.ReadFile(newest)
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	if _, err := os.Stat(prev); err != nil {
		t.Fatalf("previous checkpoint missing: %v", err)
	}

	for cut := 0; cut < len(full); cut++ {
		if err := os.WriteFile(newest, full[:cut], 0o644); err != nil {
			t.Fatalf("truncate at %d: %v", cut, err)
		}
		path, ck, err := LatestCheckpoint(dir)
		if ck == nil {
			t.Fatalf("cut=%d: no fallback checkpoint (err=%v)", cut, err)
		}
		if path != prev || ck.Epoch != 2 {
			t.Fatalf("cut=%d: fell back to %s (epoch %d), want %s", cut, path, ck.Epoch, prev)
		}
		if err == nil {
			t.Fatalf("cut=%d: fallback was silent, want an error naming the torn file", cut)
		}
	}

	// Restore the original bytes: the newest file loads cleanly again.
	if err := os.WriteFile(newest, full, 0o644); err != nil {
		t.Fatal(err)
	}
	path, ck, err := LatestCheckpoint(dir)
	if err != nil || ck == nil || path != newest || ck.Epoch != 4 {
		t.Fatalf("restored: got path=%s ck=%v err=%v", path, ck, err)
	}
}

// TestCheckpointRoundTripPreservesDropoutState asserts the dropout RNG
// position survives save/load: two more training epochs after a round
// trip match two more epochs without one.
func TestCheckpointRoundTripPreservesDropoutState(t *testing.T) {
	x, y := ckptData(24)
	cfg := ckptConfig(nil)
	cfg.Epochs = 6

	netA := ckptNet()
	if _, err := Fit(netA, x, y, cfg); err != nil {
		t.Fatalf("Fit: %v", err)
	}

	dir := t.TempDir()
	cfg4 := ckptConfig(&DirCheckpointer{Dir: dir})
	cfg4.Epochs = 6
	netB := ckptNet()
	// Kill after epoch 4 (entering 5), resume through a disk round trip.
	defer faultinject.Reset()
	errBoom := errors.New("boom")
	faultinject.Set(TrainEpochSite, faultinject.Fault{Err: errBoom, Skip: 4, Count: 1})
	if _, err := Fit(netB, x, y, cfg4); !errors.Is(err, errBoom) {
		t.Fatalf("want injected crash, got %v", err)
	}
	_, ck, err := LatestCheckpoint(dir)
	if err != nil || ck == nil || ck.Epoch != 4 {
		t.Fatalf("LatestCheckpoint: %v %v", ck, err)
	}
	netC := ckptNet()
	cfgR := ckptConfig(nil)
	cfgR.Epochs = 6
	cfgR.Resume = ck
	if _, err := Fit(netC, x, y, cfgR); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !bytes.Equal(saveBytes(t, netA), saveBytes(t, netC)) {
		t.Error("model after disk round trip differs: dropout RNG state not preserved")
	}
}

// TestDirCheckpointerPrunes bounds disk usage.
func TestDirCheckpointerPrunes(t *testing.T) {
	x, y := ckptData(16)
	dir := t.TempDir()
	cfg := ckptConfig(&DirCheckpointer{Dir: dir, Keep: 2})
	cfg.Epochs = 6
	cfg.CheckpointEvery = 1
	if _, err := Fit(ckptNet(), x, y, cfg); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, checkpointPattern))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("kept %d checkpoints, want 2: %v", len(paths), paths)
	}
}

// TestSaveCheckpointDoesNotMutate asserts capturing and saving twice in
// a row produces identical bytes — the non-mutating capture contract
// that bit-identical resume rests on.
func TestSaveCheckpointDoesNotMutate(t *testing.T) {
	x, y := ckptData(16)
	cfg := ckptConfig(nil)
	cfg.Epochs = 2
	net := ckptNet()
	hist, err := Fit(net, x, y, cfg)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	c1, err := captureCheckpoint(net, &cfg, 2, hist)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	c2, err := captureCheckpoint(net, &cfg, 2, hist)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	var b1, b2 bytes.Buffer
	if err := SaveCheckpoint(&b1, c1); err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpoint(&b2, c2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("back-to-back captures differ: capture mutates training state")
	}
	// And the network still saves identically after both captures.
	if !bytes.Equal(saveBytes(t, net), saveBytes(t, net)) {
		t.Error("Save mutates the network")
	}
}

// TestCheckpointGolden: a checkpoint written at the parent commit
// (before framelog) loads to the run state it captured and restores
// into the architecture it was taken from.
func TestCheckpointGolden(t *testing.T) {
	ck, err := LoadCheckpointFile("testdata/golden.hsdck")
	if err != nil {
		t.Fatal(err)
	}
	if ck.Epoch != 2 || ck.Seed != 3 || len(ck.History) != 2 {
		t.Fatalf("epoch %d seed %d history %d, want 2, 3, 2", ck.Epoch, ck.Seed, len(ck.History))
	}
	if h := ck.History[1]; h.Epoch != 2 || h.Loss != 0.6078120114433004 || h.Acc != 0.5625 {
		t.Fatalf("history[1] = %+v", h)
	}
	net, cfg := ckptNet(), ckptConfig(nil)
	if err := ck.apply(net, &cfg); err != nil {
		t.Fatal(err)
	}
	if got := net.Layers[0].(*Dense).W.Data[0]; got != 0.4142548774517474 {
		t.Fatalf("restored weight %v, want 0.4142548774517474", got)
	}
}
