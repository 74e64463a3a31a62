// Command hsdtrain trains one detector from the survey zoo on one
// benchmark and reports the contest metrics. A neural detector's
// network can be saved for later scanning, serving or hot reload.
//
// Usage:
//
//	hsdtrain -suite suite.gob -bench B1 -detector CNN-biased -save cnn.net
//	hsdtrain -suite suite.gob -bench B3 -detector AdaBoost
//
// A fit is deterministic: the same suite, detector and seed give the same
// network bytes, so a run that was stopped is finished by running it
// again. SIGINT or SIGTERM cancels the run; hsdtrain then exits non-zero
// and writes nothing, as it does on any other failure. -save with a
// detector that has no network is refused before anything is trained.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	hsd "github.com/golitho/hsd"
	"github.com/golitho/hsd/internal/cli"
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

	det := spec.New()
	nd, neural := det.(*hsd.NeuralDetector)
	if *save != "" && !neural {
		return fmt.Errorf("detector %s is not a neural detector; cannot save", spec.Name)
	}
	sim, err := hsd.NewSimulator(hsd.DefaultSimConfig())
	if err != nil {
		return err
	}

	// SIGINT/SIGTERM cancel the run, and a cancelled run returns its
	// error before -save writes anything.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	t0 := time.Now()
	res, err := hsd.EvaluateCtx(ctx, det, bench.Name,
		hsd.FromSamples(bench.Train.Samples), hsd.FromSamples(bench.Test.Samples),
		hsd.EvalOptions{Sim: sim, Augment: spec.Augment})
	if err != nil {
		return err
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
	fmt.Printf("total %v\n", time.Since(t0).Round(time.Millisecond))

	if *save != "" {
		// A signal that came after the fit still means "write nothing".
		if err := ctx.Err(); err != nil {
			return err
		}
		// SaveNetworkFile is crash-safe: temp file, fsync, close (both
		// checked), atomic rename. A failure leaves the old file intact.
		if err := hsd.SaveNetworkFile(*save, nd); err != nil {
			return err
		}
		fmt.Printf("saved network to %s\n", *save)
	}
	return nil
}
