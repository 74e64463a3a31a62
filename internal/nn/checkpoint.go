package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"github.com/golitho/hsd/internal/framelog"
)

// Checkpoint captures a training run at an epoch boundary: network
// parameters (including dropout RNG position), optimizer slots and
// decayed learning rate, the completed-epoch count, and the history so
// far. Together with the run's TrainConfig (same data, seed, optimizer
// hyperparameters) it is sufficient to continue training bit-identically
// to an uninterrupted run: the train-loop RNG is not stored because it
// is a pure function of (Seed, Epoch) — resume replays its draw
// sequence. See FitCtx.
type Checkpoint struct {
	// Epoch is the number of fully completed epochs.
	Epoch int
	// Seed is the TrainConfig.Seed of the run; resume refuses a
	// mismatched seed, which would silently break determinism.
	Seed int64
	// History holds the per-epoch stats up to Epoch.
	History []EpochStats

	layers []snapshot
	opt    optState
}

// ckptFile is the gob payload of a checkpoint file.
type ckptFile struct {
	Version int
	Epoch   int
	Seed    int64
	History []EpochStats
	Layers  []snapshot
	Opt     optState
}

// ckptMagic opens the framed checkpoint format (DESIGN.md "On-disk
// formats").
const ckptMagic = "HSDCKv1\n"

const ckptVersion = 1

// captureCheckpoint snapshots the run without mutating it.
func captureCheckpoint(net *Network, cfg *TrainConfig, epoch int, history []EpochStats) (*Checkpoint, error) {
	layers, err := snapshotNet(net)
	if err != nil {
		return nil, err
	}
	so, ok := cfg.Optimizer.(statefulOptimizer)
	if !ok {
		return nil, fmt.Errorf("nn: optimizer %T does not support checkpointing", cfg.Optimizer)
	}
	return &Checkpoint{
		Epoch:   epoch,
		Seed:    cfg.Seed,
		History: append([]EpochStats(nil), history...),
		layers:  layers,
		opt:     so.captureState(),
	}, nil
}

// apply restores the captured weights into net and the optimizer slots
// into cfg.Optimizer. The network must have the architecture the
// checkpoint was taken from.
func (c *Checkpoint) apply(net *Network, cfg *TrainConfig) error {
	if len(c.layers) != len(net.Layers) {
		return fmt.Errorf("nn: checkpoint has %d layers, network has %d", len(c.layers), len(net.Layers))
	}
	restored := make([]Layer, len(c.layers))
	for i, s := range c.layers {
		l, err := restoreLayer(s)
		if err != nil {
			return fmt.Errorf("nn: checkpoint layer %d: %w", i, err)
		}
		if got, want := l.Name(), net.Layers[i].Name(); got != want {
			return fmt.Errorf("nn: checkpoint layer %d is %s, network has %s", i, got, want)
		}
		restored[i] = l
	}
	copy(net.Layers, restored)
	so, ok := cfg.Optimizer.(statefulOptimizer)
	if !ok {
		return fmt.Errorf("nn: optimizer %T does not support checkpointing", cfg.Optimizer)
	}
	return so.restoreState(c.opt, net.Params())
}

// SaveCheckpoint serializes c as one framelog frame. Like Save, it
// never mutates the run.
func SaveCheckpoint(w io.Writer, c *Checkpoint) error {
	var payload bytes.Buffer
	file := ckptFile{
		Version: ckptVersion,
		Epoch:   c.Epoch,
		Seed:    c.Seed,
		History: c.History,
		Layers:  c.layers,
		Opt:     c.opt,
	}
	if err := gob.NewEncoder(&payload).Encode(file); err != nil {
		return fmt.Errorf("nn: encode checkpoint: %w", err)
	}
	return framelog.WriteFrame(w, ckptMagic, payload.Bytes())
}

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint,
// rejecting truncated or corrupted files with a clear error.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	payload, err := framelog.ReadFrame(r, ckptMagic)
	if err != nil {
		return nil, fmt.Errorf("nn: checkpoint file: %w", err)
	}
	var file ckptFile
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&file); err != nil {
		return nil, fmt.Errorf("nn: decode checkpoint: %w", err)
	}
	if file.Version != ckptVersion {
		return nil, fmt.Errorf("nn: unsupported checkpoint version %d", file.Version)
	}
	if file.Epoch < 0 || file.Epoch != len(file.History) {
		return nil, fmt.Errorf("nn: checkpoint epoch %d does not match history length %d", file.Epoch, len(file.History))
	}
	return &Checkpoint{
		Epoch:   file.Epoch,
		Seed:    file.Seed,
		History: file.History,
		layers:  file.Layers,
		opt:     file.Opt,
	}, nil
}

// SaveCheckpointFile writes the checkpoint to path crash-safely (temp
// file, fsync, atomic rename) — a crash mid-save leaves any previous
// checkpoint intact.
func SaveCheckpointFile(path string, c *Checkpoint) error {
	return framelog.WriteFileAtomic(path, func(w io.Writer) error { return SaveCheckpoint(w, c) })
}

// LoadCheckpointFile reads a checkpoint from path with the integrity
// checks of LoadCheckpoint.
func LoadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("nn: open checkpoint: %w", err)
	}
	defer f.Close()
	c, err := LoadCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("nn: load %s: %w", path, err)
	}
	return c, nil
}

// checkpointPattern matches files written by DirCheckpointer.
const checkpointPattern = "ckpt-*.hsdck"

// checkpointName returns the file name for an epoch's checkpoint.
func checkpointName(epoch int) string { return fmt.Sprintf("ckpt-%06d.hsdck", epoch) }

// LatestCheckpoint scans dir for checkpoint files and returns the most
// recent (highest-epoch) one that loads cleanly, skipping corrupted or
// torn files. The returned error describes every skipped file so a torn
// final checkpoint is visible, not silent; it is nil only when the
// newest file loaded without falling back. When no file loads, the
// checkpoint is nil.
func LatestCheckpoint(dir string) (string, *Checkpoint, error) {
	paths, err := filepath.Glob(filepath.Join(dir, checkpointPattern))
	if err != nil {
		return "", nil, err
	}
	sort.Sort(sort.Reverse(sort.StringSlice(paths)))
	var skipped []error
	for _, p := range paths {
		c, err := LoadCheckpointFile(p)
		if err != nil {
			skipped = append(skipped, err)
			continue
		}
		if len(skipped) > 0 {
			return p, c, fmt.Errorf("nn: fell back to %s: %w", p, joinErrs(skipped))
		}
		return p, c, nil
	}
	if len(skipped) > 0 {
		return "", nil, fmt.Errorf("nn: no usable checkpoint in %s: %w", dir, joinErrs(skipped))
	}
	return "", nil, nil
}

func joinErrs(errs []error) error {
	if len(errs) == 1 {
		return errs[0]
	}
	msg := errs[0].Error()
	for _, e := range errs[1:] {
		msg += "; " + e.Error()
	}
	return fmt.Errorf("%s", msg)
}

// Checkpointer receives periodic checkpoints during training.
type Checkpointer interface {
	// SaveCheckpoint persists the checkpoint; an error halts training
	// (a run that silently cannot checkpoint is not crash-tolerant).
	SaveCheckpoint(c *Checkpoint) error
}

// DirCheckpointer writes one file per checkpointed epoch into Dir,
// pruning old files so at most Keep remain. Writes are atomic, so the
// directory always holds complete, verifiable checkpoints.
type DirCheckpointer struct {
	Dir string
	// Keep bounds how many checkpoint files are retained (default 2).
	// At least 2 matters for torn-write recovery: if the newest file is
	// corrupted by a crash mid-rename, resume falls back to the one
	// before it.
	Keep int
	// OnSave, when non-nil, observes each successful save (metrics).
	OnSave func(path string, c *Checkpoint)
}

var _ Checkpointer = (*DirCheckpointer)(nil)

// SaveCheckpoint implements Checkpointer.
func (d *DirCheckpointer) SaveCheckpoint(c *Checkpoint) error {
	if err := os.MkdirAll(d.Dir, 0o755); err != nil {
		return fmt.Errorf("nn: checkpoint dir: %w", err)
	}
	path := filepath.Join(d.Dir, checkpointName(c.Epoch))
	if err := SaveCheckpointFile(path, c); err != nil {
		return err
	}
	keep := d.Keep
	if keep <= 0 {
		keep = 2
	}
	if paths, err := filepath.Glob(filepath.Join(d.Dir, checkpointPattern)); err == nil && len(paths) > keep {
		sort.Strings(paths)
		for _, old := range paths[:len(paths)-keep] {
			os.Remove(old) // best effort: stale checkpoints are harmless
		}
	}
	if d.OnSave != nil {
		d.OnSave(path, c)
	}
	return nil
}
