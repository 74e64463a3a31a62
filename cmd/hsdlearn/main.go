// Command hsdlearn runs the crash-tolerant active-learning loop: mine
// uncertain clips from a trained detector, select a diverse batch,
// label it with the lithography-simulation oracle, retrain, and ship
// the retrained model through the same golden-set gate that guards
// hsdserve's hot reloads. Every stage outcome is journaled to a WAL
// before the next stage runs, so the process can be killed -9 at any
// point and resumed with -resume to a byte-identical shipped model.
//
// Usage:
//
//	hsdlearn -suite suite.gob -detector MLP -wal learn.wal -model-dir models
//	hsdlearn -suite suite.gob -detector MLP -wal learn.wal -model-dir models -resume
//
// Mining scores the benchmark's test split with the base detector and
// ingests clips whose score lands within -margin of the threshold —
// the detector's own uncertainty band. Candidates are deduplicated by
// content fingerprint, so re-mining after a resume is idempotent.
// A permanently failing sample (oracle panic or timeout on every
// attempt) is quarantined after -oracle-attempts tries and the batch
// ships without it; the loop always makes progress.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	hsd "github.com/golitho/hsd"
	"github.com/golitho/hsd/internal/cli"
	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/datengine"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/registry"
	"github.com/golitho/hsd/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hsdlearn:", err)
		os.Exit(1)
	}
}

func run() error {
	suitePath := flag.String("suite", "suite.gob", "suite gob file")
	benchName := flag.String("bench", "", "benchmark name (default: first)")
	detName := flag.String("detector", "MLP", "zoo detector name (must be neural: the retrained model is saved and gate-loaded)")
	seed := flag.Int64("seed", 1, "training seed (base model and every retrain)")
	walPath := flag.String("wal", "learn.wal", "active-learning journal; every stage outcome lands here before the next stage runs")
	resume := flag.Bool("resume", false, "continue an existing -wal after a crash or kill")
	batch := flag.Int("batch", 8, "labeling batch size (k-center diverse selection)")
	margin := flag.Float64("margin", 0.15, "mining band: ingest test-split clips scored within this of the threshold")
	oracleDeadline := flag.Duration("oracle-deadline", 2*time.Second, "per-sample labeling budget across all oracle attempts")
	oracleAttempts := flag.Int("oracle-attempts", 3, "oracle attempts per sample before quarantine")
	cycles := flag.Int("cycles", 1, "mine->select->label->retrain->ship cycles to run")
	modelDir := flag.String("model-dir", "models", "directory for retrained model files (model-<batch>.gob)")
	goldenN := flag.Int("golden", 64, "golden validation clips held out of the test split for the ship gate")
	maxRecallDrop := flag.Float64("max-recall-drop", 0.05, "max golden-set recall a retrained model may lose vs. the live model")
	maxFARRise := flag.Float64("max-far-rise", 0.05, "max golden-set false-alarm rate a retrained model may add")
	labelDelay := flag.Duration("label-delay", 0, "artificial pause before each oracle call (chaos hook: widens the kill window for scripts/learn_smoke.sh)")
	version := flag.Bool("version", false, "print build info and exit")
	flag.Parse()

	if *version {
		fmt.Println(cli.Version("hsdlearn"))
		return nil
	}

	// The same loud-failure contract as hsdtrain -resume: resuming a WAL
	// that is not there is an operator error, and overwriting one that
	// is there without saying -resume would throw away durable labels.
	if _, err := os.Stat(*walPath); *resume && os.IsNotExist(err) {
		return fmt.Errorf("-resume: WAL %s does not exist; check the path, or drop -resume to start a fresh run", *walPath)
	} else if !*resume && err == nil {
		return fmt.Errorf("WAL %s already exists; pass -resume to continue it, or remove it for a fresh run", *walPath)
	}

	_, bench, err := cli.LoadBenchmark(*suitePath, *benchName)
	if err != nil {
		return err
	}
	spec, err := cli.Spec(*seed, *detName)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Base model: the live generation the retrained candidates must beat.
	base, took, err := cli.Train(spec, bench, func(det core.Detector) error {
		if _, ok := det.(*hsd.NeuralDetector); !ok {
			return fmt.Errorf("detector %s is not a neural detector; retraining needs a saveable model", spec.Name)
		}
		return nil
	})
	if err != nil {
		return err
	}
	nd := base.(*hsd.NeuralDetector) // anything else was refused before the fit
	baseTrain := hsd.FromSamples(bench.Train.Samples)
	fmt.Printf("base model  %s on %s in %v\n", base.Name(), bench.Name, took.Round(time.Millisecond))

	sim, err := hsd.NewSimulator(hsd.DefaultSimConfig())
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*modelDir, 0o755); err != nil {
		return err
	}

	// Ship path: the identical registry gate hsdserve runs on hot
	// reload — golden subset of the test split, recall/FAR tolerance,
	// loader through the base detector's feature pipeline.
	reg := registry.New(base, registry.Config{
		Golden:            cli.GoldenSet(bench, *goldenN),
		MaxRecallDrop:     *maxRecallDrop,
		MaxFalseAlarmRise: *maxFARRise,
		Loader:            cli.NetworkLoader(nd),
		Logf:              log.Printf,
	})

	metrics := telemetry.NewRegistry()
	eng, err := datengine.Open(*walPath, datengine.Config{
		Detector:       spec.Name,
		BatchSize:      *batch,
		OracleDeadline: *oracleDeadline,
		OracleAttempts: *oracleAttempts,
		Oracle: func(octx context.Context, clip layout.Clip) (bool, error) {
			if *labelDelay > 0 {
				select {
				case <-time.After(*labelDelay):
				case <-octx.Done():
					return false, octx.Err()
				}
			}
			return sim.LabelCtx(octx, clip)
		},
		Train: func(tctx context.Context, batchID int, labeled []core.LabeledClip) (string, error) {
			// A fresh detector fit on base data + the labeled batch, with
			// the same seed: the saved bytes are a pure function of
			// (batchID, labeled), which is what makes kill -9 + -resume
			// reproduce the shipped model byte-identically.
			cand := spec.New().(*hsd.NeuralDetector)
			train := append(append([]core.LabeledClip(nil), baseTrain...), labeled...)
			if err := cand.FitCtx(tctx, hsd.AugmentMinority(train, spec.Augment)); err != nil {
				return "", err
			}
			path := fmt.Sprintf("%s/model-%03d.gob", *modelDir, batchID)
			if err := hsd.SaveNetworkFile(path, cand); err != nil {
				return "", err
			}
			return path, nil
		},
		Ship: func(sctx context.Context, batchID int, modelPath string) error {
			gen, verdict, err := reg.Reload(sctx, modelPath)
			if errors.Is(err, registry.ErrRejected) {
				return fmt.Errorf("%w: %s", datengine.ErrShipRejected, verdict.Reason)
			}
			if err != nil {
				return err
			}
			fmt.Printf("shipped     generation %d from %s (gate: %s)\n", gen.ID, modelPath, verdict)
			return nil
		},
		Metrics: metrics,
		Logf:    log.Printf,
	})
	if err != nil {
		return err
	}
	defer eng.Close()

	if err := mine(ctx, eng, base, bench, *margin); err != nil {
		return err
	}

	for i := 0; i < *cycles; i++ {
		rep, err := eng.RunCycle(ctx)
		if errors.Is(err, datengine.ErrNoCandidates) {
			fmt.Printf("cycle %d     no candidates left in the mining band; done\n", i+1)
			break
		}
		if err != nil {
			return fmt.Errorf("cycle %d: %w", i+1, err)
		}
		fmt.Printf("cycle %d     batch %d selected=%d labeled=%d (resumed %d) hot=%d cold=%d quarantined=%d outcome=%s%s\n",
			i+1, rep.BatchID, rep.Selected, rep.Labeled, rep.ResumedLabels,
			rep.Hot, rep.Cold, rep.Quarantined, rep.Outcome, reasonNote(rep.Reason))
	}

	candidates, consumed, shipped, rejected, _ := eng.Snapshot()
	fmt.Printf("state       candidates=%d consumed=%d shipped=%d rejected=%d pending=%d\n",
		candidates, consumed, shipped, rejected, eng.PendingCandidates())
	for _, s := range metrics.Snapshot() {
		if !strings.HasPrefix(s.Name, "learn_") || s.Histogram != nil || s.Value == 0 {
			continue
		}
		fmt.Printf("metric      %s%s = %.0f\n", s.Name, labelSuffix(s.Labels), s.Value)
	}
	return nil
}

// mine scores the benchmark's test split with the base detector and
// ingests every clip inside the uncertainty band. Ingest dedupes by
// content fingerprint, so mining after -resume re-offers only what the
// WAL has not seen.
func mine(ctx context.Context, eng *datengine.Engine, det core.Detector, bench *hsd.Benchmark, margin float64) error {
	thr := det.Threshold()
	scored, mined := 0, 0
	for _, s := range bench.Test.Samples {
		if err := ctx.Err(); err != nil {
			return err
		}
		clip := s.Clip
		score, err := core.ScoreClipCtx(ctx, det, clip)
		if err != nil {
			return fmt.Errorf("mining: %w", err)
		}
		scored++
		if d := score - thr; d < -margin || d > margin {
			continue
		}
		fresh, err := eng.Ingest(clip, score, "base", "lowconf")
		if err != nil {
			return fmt.Errorf("mining: %w", err)
		}
		if fresh {
			mined++
		}
	}
	fmt.Printf("mined       %d/%d test clips in the +/-%.2f band (%d new, %d pending)\n",
		mined, scored, margin, mined, eng.PendingCandidates())
	return nil
}

func reasonNote(reason string) string {
	if reason == "" {
		return ""
	}
	return " (" + reason + ")"
}

func labelSuffix(labels []telemetry.Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Key + "=" + l.Value
	}
	return "{" + strings.Join(parts, ",") + "}"
}
