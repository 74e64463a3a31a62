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
	"github.com/golitho/hsd/internal/nn"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hsdtrain:", err)
		os.Exit(1)
	}
}

func run() error {
	suitePath := flag.String("suite", "suite.gob", "suite file")
	benchName := flag.String("bench", "", "benchmark name (default: first)")
	detName := flag.String("detector", "CNN-biased", "zoo detector name")
	seed := flag.Int64("seed", 1, "training seed")
	save := flag.String("save", "", "save the trained network (neural detectors only)")
	ckptDir := flag.String("checkpoint-dir", "", "directory for periodic training checkpoints (neural detectors only)")
	ckptEvery := flag.Int("checkpoint-every", 1, "epochs between checkpoints (with -checkpoint-dir)")
	ckptKeep := flag.Int("checkpoint-keep", 2, "checkpoint files retained in -checkpoint-dir")
	resume := flag.Bool("resume", false, "resume from the newest good checkpoint in -checkpoint-dir")
	version := flag.Bool("version", false, "print build info (the hotspot_build_info fields) and exit")
	flag.Parse()

	if *version {
		fmt.Println(cli.Version("hsdtrain"))
		return nil
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

	// Checkpointing: wire the trainer's crash-tolerance into the CLI.
	ckptTotal := 0
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
				ckptTotal++
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
	if ckptTotal > 0 {
		fmt.Printf("checkpoints %d written to %s\n", ckptTotal, *ckptDir)
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
	if interrupted {
		return err
	}
	return nil
}
