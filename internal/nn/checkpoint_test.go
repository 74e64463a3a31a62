package nn

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/golitho/hsd/internal/faultinject"
	"github.com/golitho/hsd/internal/framelog"
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

// ckptConfig is the shared training config; Adam's moments and step
// count must survive the round trip for equivalence to hold.
func ckptConfig(ck Checkpointer) TrainConfig {
	return TrainConfig{
		Epochs:          9,
		BatchSize:       8,
		LR:              5e-3,
		Seed:            3,
		Checkpointer:    ck,
		CheckpointEvery: 2,
	}
}

// checkpointFunc is a Checkpointer made of a function: the tests wrap a
// DirCheckpointer in one to act on the run at an epoch boundary.
type checkpointFunc func(c *Checkpoint) error

// SaveCheckpoint implements Checkpointer.
func (f checkpointFunc) SaveCheckpoint(c *Checkpoint) error { return f(c) }

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
	disk := &DirCheckpointer{Dir: dir}
	var saved []int
	cfg := ckptConfig(checkpointFunc(func(c *Checkpoint) error {
		saved = append(saved, c.Epoch)
		return disk.SaveCheckpoint(c)
	}))
	// FitCtx polls Err once before each epoch, so the 6th poll cancels
	// the run after epoch 5, which the CheckpointEvery=2 cadence skips.
	ctx := cancelOnPoll(context.Background(), 6)
	net1 := ckptNet()
	hist, err := FitCtx(ctx, net1, x, y, cfg)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("cancelled run: got err %v, want ErrInterrupted", err)
	}
	if len(hist) != 5 {
		t.Fatalf("cancelled run returned %d epochs of history, want 5", len(hist))
	}

	// The SIGTERM-style final cut must persist epoch 5 even though it is
	// not on the cadence.
	if !slices.Equal(saved, []int{2, 4, 5}) {
		t.Fatalf("saved epochs %v, want [2 4 5]", saved)
	}
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

// pollCancelCtx cancels itself on its n-th Err call, so a test can stop a
// single-goroutine run at a chosen poll.
type pollCancelCtx struct {
	context.Context
	left   int
	cancel context.CancelFunc
}

func cancelOnPoll(parent context.Context, n int) context.Context {
	ctx, cancel := context.WithCancel(parent)
	return &pollCancelCtx{Context: ctx, left: n, cancel: cancel}
}

func (c *pollCancelCtx) Err() error {
	if c.left--; c.left == 0 {
		c.cancel()
	}
	return c.Context.Err()
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

	lr := ckptConfig(nil)
	lr.Epochs = 4
	lr.LR = 1e-3
	lr.Resume = ck
	if _, err := Fit(ckptNet(), x, y, lr); err == nil || !strings.Contains(err.Error(), "learning rate") {
		t.Errorf("resume with a different learning rate: err = %v, want a learning-rate mismatch", err)
	}
}

// TestNonFiniteHaltsAndCheckpoints writes +Inf into a live weight after
// epoch 3's save and asserts the NaN guard halts with that epoch persisted
// again, and that it resumes to the uninterrupted run's bytes.
func TestNonFiniteHaltsAndCheckpoints(t *testing.T) {
	x, y := ckptData(32)
	ref := ckptNet()
	refCfg := ckptConfig(nil)
	refCfg.Epochs = 8
	if _, err := Fit(ref, x, y, refCfg); err != nil {
		t.Fatalf("reference Fit: %v", err)
	}

	dir := t.TempDir()
	disk := &DirCheckpointer{Dir: dir, Keep: 10}
	net := ckptNet()
	var saved []int
	cfg := ckptConfig(checkpointFunc(func(c *Checkpoint) error {
		saved = append(saved, c.Epoch)
		if err := disk.SaveCheckpoint(c); err != nil {
			return err
		}
		if c.Epoch == 3 {
			// The head's first weight: every logit it reaches is +Inf
			// or NaN, so epoch 4's first loss is NaN.
			net.Layers[3].(*Dense).W.Data[0] = math.Inf(1)
		}
		return nil
	}))
	cfg.Epochs = 8
	cfg.CheckpointEvery = 1
	hist, err := Fit(net, x, y, cfg)
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("got err %v, want ErrNonFinite", err)
	}
	if len(hist) != 3 {
		t.Fatalf("halted with %d epochs of history, want 3", len(hist))
	}
	if !slices.Equal(saved, []int{1, 2, 3, 3}) {
		t.Fatalf("saved epochs %v, want the halt to persist epoch 3 again: [1 2 3 3]", saved)
	}
	_, ck, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatalf("LatestCheckpoint: %v", err)
	}
	if ck == nil || ck.Epoch != 3 {
		t.Fatalf("last good checkpoint = %v, want epoch 3", ck)
	}
	// The checkpoint was captured before the weight was poisoned.
	net2 := ckptNet()
	cfg2 := refCfg
	cfg2.Resume = ck
	if _, err := Fit(net2, x, y, cfg2); err != nil {
		t.Fatalf("resume from the last good checkpoint: %v", err)
	}
	if !bytes.Equal(saveBytes(t, net2), saveBytes(t, ref)) {
		t.Error("resumed model differs from the uninterrupted run")
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

// TestCheckpointFallbackWrapsEverySkip: when two newer checkpoints are
// torn, LatestCheckpoint falls back to the third and its error still
// wraps framelog.ErrTorn, naming both skipped files.
func TestCheckpointFallbackWrapsEverySkip(t *testing.T) {
	x, y := ckptData(16)
	dir := t.TempDir()
	cfg := ckptConfig(&DirCheckpointer{Dir: dir, Keep: 3})
	cfg.Epochs = 6
	cfg.CheckpointEvery = 2
	if _, err := Fit(ckptNet(), x, y, cfg); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	for _, epoch := range []int{4, 6} {
		path := filepath.Join(dir, checkpointName(epoch))
		full, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, full[:len(full)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	path, ck, err := LatestCheckpoint(dir)
	if ck == nil || ck.Epoch != 2 || path != filepath.Join(dir, checkpointName(2)) {
		t.Fatalf("fell back to %s (%v), want epoch 2", path, ck)
	}
	if !errors.Is(err, framelog.ErrTorn) {
		t.Fatalf("err = %v, want one wrapping ErrTorn", err)
	}
	for _, epoch := range []int{4, 6} {
		if name := checkpointName(epoch); !strings.Contains(err.Error(), name) {
			t.Errorf("err = %v, want it to name %s", err, name)
		}
	}
}

// TestCheckpointFallbackOnUnrestorableOptimizer: a checkpoint whose
// optimizer state does not fit its own layers is refused at load, like a
// torn one, so that LatestCheckpoint falls back to the one before it
// instead of returning a checkpoint no resume can apply.
func TestCheckpointFallbackOnUnrestorableOptimizer(t *testing.T) {
	x, y := ckptData(16)
	dir := t.TempDir()
	cfg := ckptConfig(&DirCheckpointer{Dir: dir, Keep: 10})
	cfg.Epochs = 4
	if _, err := Fit(ckptNet(), x, y, cfg); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	newest := filepath.Join(dir, checkpointName(4))
	full, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		damage func(*ckptFile)
	}{
		{"one-slot-group", func(f *ckptFile) { f.Opt.Slots = f.Opt.Slots[:1] }},
		{"short-slot", func(f *ckptFile) { f.Opt.Slots[1][0] = f.Opt.Slots[1][0][:1] }},
		{"kind-sgd", func(f *ckptFile) { f.Opt.Kind = "sgd" }},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := os.WriteFile(newest, full, 0o644); err != nil {
				t.Fatal(err)
			}
			file, err := ckptFormat.Load(newest)
			if err != nil {
				t.Fatal(err)
			}
			c.damage(&file)
			if err := ckptFormat.Save(newest, file); err != nil {
				t.Fatal(err)
			}
			path, ck, err := LatestCheckpoint(dir)
			if ck == nil || ck.Epoch != 2 || path != filepath.Join(dir, checkpointName(2)) {
				t.Fatalf("LatestCheckpoint = %s (err %v), want %s", path, err, checkpointName(2))
			}
			if err == nil || !strings.Contains(err.Error(), checkpointName(4)) {
				t.Fatalf("err = %v, want one naming %s", err, checkpointName(4))
			}
			resume := ckptConfig(nil)
			resume.Epochs = 4
			resume.Resume = ck
			if _, err := Fit(ckptNet(), x, y, resume); err != nil {
				t.Fatalf("resume from the fallback: %v", err)
			}
		})
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
	// A stepped optimizer, so that its moments are not all zero.
	opt := newAdam(cfg.LR, net.Params())
	opt.step(net.Params())
	c1, err := captureCheckpoint(net, opt, cfg.Seed, 2, hist)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	c2, err := captureCheckpoint(net, opt, cfg.Seed, 2, hist)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	if !bytes.Equal(framed(ckptFormat, c1.file()), framed(ckptFormat, c2.file())) {
		t.Error("back-to-back captures differ: capture mutates training state")
	}
	// And the network still saves identically after both captures.
	if !bytes.Equal(saveBytes(t, net), saveBytes(t, net)) {
		t.Error("Save mutates the network")
	}
}

// TestCheckpointGolden: the golden checkpoint loads to the run state it
// captured, re-encodes to its own bytes and restores into the
// architecture it was taken from. golden.hsdck.v1 is the same checkpoint
// in the gob format it replaced (itself first written before framelog
// existed), and holds the same value, floats by their bits.
func TestCheckpointGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden.hsdck")
	if err != nil {
		t.Fatal(err)
	}
	file, err := ckptFormat.Load("testdata/golden.hsdck")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(framed(ckptFormat, file), golden) {
		t.Fatal("the golden checkpoint does not re-encode to its own bytes")
	}
	if old := gobV1[ckptFile](t, "testdata/golden.hsdck.v1", "HSDCKv1\n"); !reflect.DeepEqual(old, file) ||
		!bytes.Equal(framed(ckptFormat, old), golden) {
		t.Fatal("golden.hsdck.v1 holds another checkpoint than golden.hsdck")
	}
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
	if _, err := ck.apply(net, &cfg); err != nil {
		t.Fatal(err)
	}
	if got := net.Layers[0].(*Dense).W.Data[0]; got != 0.4142548774517474 {
		t.Fatalf("restored weight %v, want 0.4142548774517474", got)
	}
}
