// Command hsdtrain trains one detector from the survey zoo on one
// benchmark and reports the contest metrics. Neural detectors can be
// saved for later scanning, checkpointed periodically during training,
// and resumed bit-identically after a crash or SIGTERM.
//
// Usage:
//
//	hsdtrain -suite suite.gob -bench B1 -detector CNN-biased -save cnn.gob
//	hsdtrain -suite suite.gob -bench B3 -detector AdaBoost
//	hsdtrain -suite suite.gob -detector CNN -checkpoint-dir ckpts -checkpoint-every 5
//	hsdtrain -suite suite.gob -detector CNN -checkpoint-dir ckpts -resume
//
// With -checkpoint-dir, training writes an atomic checkpoint (network
// parameters, optimizer state, RNG position, epoch history) every
// -checkpoint-every epochs, and SIGINT/SIGTERM cut a final checkpoint
// before exit instead of losing the run. -resume picks up from the
// newest good checkpoint — torn or corrupted files are skipped with a
// warning — and continues exactly as if the run had never stopped: the
// resumed model is byte-identical to an uninterrupted one. A run that
// is interrupted mid-training still prints the contest metrics of the
// partial model before exiting non-zero.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	hsd "github.com/golitho/hsd"
	"github.com/golitho/hsd/internal/cli"
	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/nn"
	"github.com/golitho/hsd/internal/qualitymon"
	"github.com/golitho/hsd/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hsdtrain:", err)
		os.Exit(1)
	}
}

func run() error {
	suitePath := flag.String("suite", "suite.gob", "suite gob file")
	benchName := flag.String("bench", "", "benchmark name (default: first)")
	detName := flag.String("detector", "CNN-biased", "zoo detector name")
	seed := flag.Int64("seed", 1, "training seed")
	save := flag.String("save", "", "save the trained network (neural detectors only)")
	ckptDir := flag.String("checkpoint-dir", "", "directory for periodic training checkpoints (neural detectors only)")
	ckptEvery := flag.Int("checkpoint-every", 1, "epochs between checkpoints (with -checkpoint-dir)")
	ckptKeep := flag.Int("checkpoint-keep", 2, "checkpoint files retained in -checkpoint-dir")
	resume := flag.Bool("resume", false, "resume from the newest good checkpoint in -checkpoint-dir")
	var routerFlags cli.RouterFlags
	routerFlags.Register(flag.CommandLine)
	qualityBaseline := flag.String("quality-baseline", "", "write a training-score drift baseline here; \"auto\" with -save writes the <save>.qb sidecar the server's hot reload picks up")
	qualityBins := flag.Int("quality-bins", 20, "histogram bins per series in the -quality-baseline")
	version := flag.Bool("version", false, "print build info (the hotspot_build_info fields) and exit")
	flag.Parse()

	if *version {
		fmt.Println(cli.Version("hsdtrain"))
		return nil
	}

	baselinePath := *qualityBaseline
	if baselinePath == "auto" {
		if *save == "" {
			return fmt.Errorf("-quality-baseline auto needs -save")
		}
		baselinePath = qualitymon.SidecarPath(*save)
	}

	_, bench, err := cli.LoadBenchmark(*suitePath, *benchName)
	if err != nil {
		return err
	}
	spec, err := cli.Spec(*seed, *detName)
	if err != nil {
		return err
	}

	sim, err := hsd.NewSimulator(hsd.DefaultSimConfig())
	if err != nil {
		return err
	}
	det := spec.New()
	if err := routerFlags.Apply(det); err != nil {
		return err
	}

	// Checkpointing: wire the trainer's crash-tolerance into the CLI.
	metrics := telemetry.NewRegistry()
	metrics.SetHelp("hotspot_checkpoints_total", "Training checkpoints written this run.")
	ckptTotal := metrics.Counter("hotspot_checkpoints_total")
	if *resume && *ckptDir == "" {
		return fmt.Errorf("-resume needs -checkpoint-dir")
	}
	if *ckptDir != "" {
		nd, ok := det.(*hsd.NeuralDetector)
		if !ok {
			return fmt.Errorf("detector %s is not a neural detector; cannot checkpoint", spec.Name)
		}
		if *resume {
			// Fail loudly BEFORE MkdirAll papers over a mistyped path: a
			// resume pointed at a directory that does not exist is an
			// operator error, not a fresh run.
			if _, serr := os.Stat(*ckptDir); os.IsNotExist(serr) {
				return fmt.Errorf("-resume: checkpoint directory %s does not exist; "+
					"check the path, or drop -resume to start a fresh run", *ckptDir)
			}
		}
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return err
		}
		nd.Cfg.CheckpointEvery = *ckptEvery
		nd.Cfg.Checkpointer = &nn.DirCheckpointer{
			Dir:  *ckptDir,
			Keep: *ckptKeep,
			OnSave: func(path string, c *nn.Checkpoint) {
				ckptTotal.Inc()
				fmt.Printf("checkpoint  epoch %d -> %s\n", c.Epoch, path)
			},
		}
		if *resume {
			path, ck, lerr := nn.LatestCheckpoint(*ckptDir)
			if lerr != nil {
				// Torn/corrupt files were skipped; say which and why.
				fmt.Fprintln(os.Stderr, "hsdtrain: checkpoint recovery:", lerr)
			}
			if ck == nil {
				// Silently starting fresh here would retrain from epoch 0
				// and overwrite whatever the operator thought they were
				// resuming. Make them decide.
				return fmt.Errorf("-resume: no usable checkpoint in %s "+
					"(empty, or every file torn/corrupt); "+
					"drop -resume to train from scratch, or point -checkpoint-dir at the right run", *ckptDir)
			}
			nd.Cfg.Resume = ck
			fmt.Printf("resuming    epoch %d from %s\n", ck.Epoch, path)
		}
	}

	// SIGINT/SIGTERM interrupt training cooperatively: the trainer cuts a
	// final checkpoint, Evaluate scores the partial model, and the
	// contest metrics below still print before the non-zero exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	t0 := time.Now()
	res, err := hsd.EvaluateCtx(ctx, det, bench.Name,
		hsd.FromSamples(bench.Train.Samples), hsd.FromSamples(bench.Test.Samples),
		hsd.EvalOptions{Sim: sim, Augment: spec.Augment})
	interrupted := err != nil && errors.Is(err, nn.ErrInterrupted)
	if err != nil && !interrupted {
		return err
	}
	if interrupted {
		fmt.Printf("INTERRUPTED %v\n", err)
		fmt.Printf("            metrics below describe the partial model; resume with -resume\n")
	}
	fmt.Printf("detector   %s (%s)\n", spec.Name, det.Name())
	fmt.Printf("benchmark  %s\n", bench.Name)
	fmt.Printf("accuracy   %.1f%%\n", 100*res.Accuracy())
	fmt.Printf("falsealarm %d\n", res.FalseAlarms())
	fmt.Printf("precision  %.3f  F1 %.3f  AUC %.3f\n",
		res.Confusion.Precision(), res.Confusion.F1(), res.AUC)
	fmt.Printf("train %v  infer %v  ODST %v  full-sim %v (%.1fx speedup)\n",
		res.TrainTime.Round(time.Millisecond), res.InferTime.Round(time.Millisecond),
		res.ODST().Round(time.Millisecond), res.FullSimTime.Round(time.Millisecond),
		res.Speedup())
	if n := ckptTotal.Value(); n > 0 {
		fmt.Printf("checkpoints %.0f written to %s (hotspot_checkpoints_total)\n", n, *ckptDir)
	}
	if rt, ok := det.(*hsd.RouterDetector); ok {
		cli.PrintRouterStats(rt.Stats())
	}
	fmt.Printf("total %v\n", time.Since(t0).Round(time.Millisecond))

	if *save != "" {
		nd, ok := det.(*hsd.NeuralDetector)
		if !ok {
			return fmt.Errorf("detector %s is not a neural detector; cannot save", spec.Name)
		}
		// SaveNetworkFile is crash-safe: temp file, fsync, close (both
		// checked), atomic rename. A failure leaves the old file intact.
		if err := hsd.SaveNetworkFile(*save, nd); err != nil {
			return err
		}
		fmt.Printf("saved network to %s\n", *save)
	}
	if baselinePath != "" {
		// The baseline describes whatever model is being shipped — for an
		// interrupted run that is the partial model the -save block just
		// wrote, so the sidecar stays consistent with it.
		n, err := writeQualityBaseline(baselinePath, det,
			hsd.FromSamples(bench.Train.Samples), *qualityBins)
		if err != nil {
			return err
		}
		fmt.Printf("quality baseline (%d series) written to %s\n", n, baselinePath)
	}
	if interrupted {
		return err
	}
	return nil
}

// writeQualityBaseline scores the training split through the trained
// detector and persists the per-series score histograms hsdserve's
// drift monitor compares live traffic against. A router additionally
// contributes one series per cascade stage — the calibrated confidence
// of the answering stage, read off each routing decision — so stage
// drift is attributable even when the blended score looks stable.
func writeQualityBaseline(path string, det hsd.Detector, train []hsd.LabeledClip, bins int) (int, error) {
	ctx := context.Background()
	stageScores := map[string][]float64{}
	score := func(clip layout.Clip) (float64, error) { return core.ScoreClipCtx(ctx, det, clip) }
	if rt, ok := det.(*hsd.RouterDetector); ok {
		score = func(clip layout.Clip) (float64, error) {
			d, err := rt.RouteCtx(ctx, clip)
			if err == nil {
				stageScores[d.StageName] = append(stageScores[d.StageName], d.Confidence)
			}
			return d.Score, err
		}
	}
	scores := make([]float64, 0, len(train))
	for _, s := range train {
		sc, err := score(s.Clip)
		if err != nil {
			return 0, fmt.Errorf("baseline scoring: %w", err)
		}
		scores = append(scores, sc)
	}
	b := &qualitymon.Baseline{Version: 1, Entries: []qualitymon.BaselineEntry{
		qualitymon.NewBaselineEntry(det.Name(), "primary", scores, bins),
	}}
	for stage, ss := range stageScores {
		b.Entries = append(b.Entries, qualitymon.NewBaselineEntry(det.Name(), stage, ss, bins))
	}
	b.Sort()
	if err := qualitymon.SaveBaselineFile(path, b); err != nil {
		return 0, err
	}
	return len(b.Entries), nil
}
