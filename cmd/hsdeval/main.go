// Command hsdeval runs the survey's detector zoo across a benchmark suite
// and prints the reconstructed evaluation tables (Tables I-IV; with
// -figures also Figs 2-6 and the two ablations; see DESIGN.md §3). It is
// the one producer of those artifacts.
//
// Usage:
//
//	hsdeval -suite suite.gob                  # evaluate a cached suite
//	hsdeval -seed 1 -small                    # generate on the fly
//	hsdeval -suite suite.gob -figures -bench B1
//	hsdeval -small -trace eval.json           # per-stage ODST timeline
//
// -trace records every zoo evaluation as one trace — an "eval" span
// whose "fit", "score", and "verify" children decompose the reported
// ODST terms, with the per-clip raster/features/inference spans nested
// inside — and writes them all as Chrome trace_event JSON for
// about:tracing or https://ui.perfetto.dev.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	hsd "github.com/golitho/hsd"
	"github.com/golitho/hsd/internal/cli"
	"github.com/golitho/hsd/internal/experiments"
	"github.com/golitho/hsd/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hsdeval:", err)
		os.Exit(1)
	}
}

func run() error {
	suitePath := flag.String("suite", "", "suite file (empty = generate)")
	seed := flag.Int64("seed", 1, "generation seed when -suite is empty")
	small := flag.Bool("small", false, "generate the miniature suite")
	figures := flag.Bool("figures", false, "also regenerate figure data (slower)")
	figBench := flag.String("bench", "", "benchmark for figures (default: first)")
	noODST := flag.Bool("no-odst", false, "skip lithography verification of flagged clips")
	traceOut := flag.String("trace", "", "write per-evaluation Chrome trace_event JSON to this file (about:tracing / ui.perfetto.dev)")
	version := flag.Bool("version", false, "print build info (the hotspot_build_info fields) and exit")
	flag.Parse()

	if *version {
		fmt.Println(cli.Version("hsdeval"))
		return nil
	}

	suite, err := loadOrGenerate(*suitePath, *seed, *small)
	if err != nil {
		return err
	}
	fmt.Println(experiments.BenchStats(suite))

	var sim *hsd.Simulator
	if !*noODST {
		sim, err = hsd.NewSimulator(hsd.DefaultSimConfig())
		if err != nil {
			return err
		}
	}

	zoo := hsd.SurveyZoo(*seed)
	ctx := context.Background()
	var tracer *trace.Tracer
	if *traceOut != "" {
		// One trace per (detector, benchmark) evaluation, and room for
		// all of them.
		tracer = trace.New(trace.Config{Capacity: len(zoo)*len(suite.Benchmarks) + 1})
		ctx = trace.WithTracer(ctx, tracer)
	}
	t0 := time.Now()
	results, err := experiments.RunZooCtx(ctx, suite, zoo, sim)
	if err != nil {
		return err
	}
	if tracer != nil {
		n, err := cli.WriteChromeTrace(*traceOut, tracer)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %d evaluation traces to %s (load in about:tracing or ui.perfetto.dev)\n",
			n, *traceOut)
	}
	shallow, deep := experiments.SplitZoo(results)
	fmt.Println(experiments.DetectorTable("Table II: shallow detectors", suite, shallow))
	fmt.Println(experiments.DetectorTable("Table III: deep detectors", suite, deep))
	fmt.Println(experiments.Summary(results))
	fmt.Printf("zoo evaluation took %v\n\n", time.Since(t0).Round(time.Second))

	if *figures {
		bench := *figBench
		if bench == "" {
			bench = suite.Benchmarks[0].Name
		}
		roc, err := experiments.ROCFig(suite, bench, results)
		if err != nil {
			return err
		}
		fmt.Println(roc)
		bias, err := experiments.BiasSweep(suite, bench, *seed, []float64{0, 0.1, 0.2, 0.3, 0.4})
		if err != nil {
			return err
		}
		fmt.Println(bias)
		imb, err := experiments.ImbalanceSweep(suite, bench, *seed, []int{1, 2, 4, 8})
		if err != nil {
			return err
		}
		fmt.Println(imb)
		conv, err := experiments.Convergence(suite, bench, *seed)
		if err != nil {
			return err
		}
		fmt.Println(conv)
		odst, err := experiments.ODSTScaling(suite, *seed, []int{8192, 16384, 32768})
		if err != nil {
			return err
		}
		fmt.Println(odst)
		feat, err := experiments.FeatureAblation(suite, bench)
		if err != nil {
			return err
		}
		fmt.Println(feat)
		coefs, err := experiments.DCTCoefAblation(suite, bench, *seed, []int{8, 16, 32})
		if err != nil {
			return err
		}
		fmt.Println(coefs)
	}
	return nil
}

func loadOrGenerate(path string, seed int64, small bool) (*hsd.Suite, error) {
	if path != "" {
		suite, _, err := cli.LoadBenchmark(path, "")
		return suite, err
	}
	cfg := hsd.DefaultSuiteConfig(seed)
	if small {
		cfg = hsd.SmallSuiteConfig(seed)
	}
	fmt.Println("generating suite (use benchgen + -suite to cache)...")
	return hsd.GenerateSuite(cfg)
}
