package nn

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/golitho/hsd/internal/framelog"
)

// Checkpoint captures a training run at an epoch boundary: network
// parameters (including dropout RNG position), Adam's moments, step
// count and learning rate, the completed-epoch count, and the history so
// far. Together with the run's TrainConfig (same data, seed, learning
// rate) it is sufficient to continue training bit-identically to an
// uninterrupted run: the train-loop RNG is not stored because it is a
// pure function of (Seed, Epoch) — resume replays its draw sequence. See
// FitCtx.
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

// ckptFile is the payload of a checkpoint file.
type ckptFile struct {
	Epoch   int
	Seed    int64
	History []EpochStats
	Layers  []snapshot
	Opt     optState
}

// ckptFormat is the checkpoint file (DESIGN.md "On-disk formats").
var ckptFormat = framelog.File[ckptFile]{Magic: "HSDCKv2\n"}

// captureCheckpoint snapshots the run without mutating it.
func captureCheckpoint(net *Network, opt *adam, seed int64, epoch int, history []EpochStats) (*Checkpoint, error) {
	layers, err := snapshotNet(net)
	if err != nil {
		return nil, err
	}
	return &Checkpoint{
		Epoch:   epoch,
		Seed:    seed,
		History: append([]EpochStats(nil), history...),
		layers:  layers,
		opt:     opt.state(),
	}, nil
}

// apply restores the captured weights into net and returns the optimizer
// they were being trained with. The network must have the architecture,
// and cfg the seed and learning rate, the checkpoint was taken with.
func (c *Checkpoint) apply(net *Network, cfg *TrainConfig) (*adam, error) {
	if c.Seed != cfg.Seed {
		return nil, fmt.Errorf("nn: checkpoint was taken with seed %d, config has %d", c.Seed, cfg.Seed)
	}
	if c.opt.LR != cfg.LR {
		return nil, fmt.Errorf("nn: checkpoint was taken with learning rate %v, config has %v", c.opt.LR, cfg.LR)
	}
	restored, err := restoreLayers(c.layers)
	if err != nil {
		return nil, err
	}
	if len(restored) != len(net.Layers) {
		return nil, fmt.Errorf("nn: checkpoint has %d layers, network has %d", len(restored), len(net.Layers))
	}
	for i, l := range restored {
		if got, want := l.Name(), net.Layers[i].Name(); got != want {
			return nil, fmt.Errorf("nn: checkpoint layer %d is %s, network has %s", i, got, want)
		}
	}
	copy(net.Layers, restored)
	return restoreAdam(c.opt, net.Params())
}

// restoreLayers rebuilds the layers of a checkpoint's snapshots.
func restoreLayers(snaps []snapshot) ([]Layer, error) {
	layers := make([]Layer, len(snaps))
	for i, s := range snaps {
		l, err := restoreLayer(s)
		if err != nil {
			return nil, fmt.Errorf("nn: checkpoint layer %d: %w", i, err)
		}
		layers[i] = l
	}
	return layers, nil
}

// file is c's on-disk form. Like Save, it never mutates the run.
func (c *Checkpoint) file() ckptFile {
	return ckptFile{
		Epoch:   c.Epoch,
		Seed:    c.Seed,
		History: c.History,
		Layers:  c.layers,
		Opt:     c.opt,
	}
}

// checkpoint checks a decoded file and returns the run state it holds.
func (file ckptFile) checkpoint() (*Checkpoint, error) {
	if file.Epoch < 0 || file.Epoch != len(file.History) {
		return nil, fmt.Errorf("nn: checkpoint epoch %d does not match history length %d", file.Epoch, len(file.History))
	}
	// A layer, or optimizer state, that apply could not restore is refused
	// here, where a resume (LatestCheckpoint) can still fall back to an
	// older file.
	layers, err := restoreLayers(file.Layers)
	if err != nil {
		return nil, err
	}
	if _, err := restoreAdam(file.Opt, NewNetwork(layers...).Params()); err != nil {
		return nil, err
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
	return ckptFormat.Save(path, c.file())
}

// LoadCheckpointFile reads a checkpoint from path, rejecting truncated
// or corrupted files with a clear error.
func LoadCheckpointFile(path string) (*Checkpoint, error) {
	file, err := ckptFormat.Load(path)
	if err != nil {
		return nil, fmt.Errorf("nn: %w", err)
	}
	c, err := file.checkpoint()
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
			return p, c, fmt.Errorf("nn: fell back to %s: %w", p, errors.Join(skipped...))
		}
		return p, c, nil
	}
	if len(skipped) > 0 {
		return "", nil, fmt.Errorf("nn: no usable checkpoint in %s: %w", dir, errors.Join(skipped...))
	}
	return "", nil, nil
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
