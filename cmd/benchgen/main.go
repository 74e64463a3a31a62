// Command benchgen generates a synthetic ICCAD-2012-style benchmark suite
// and writes it to a suite file (a framelog frame) for the other tools
// to consume.
//
// Usage:
//
//	benchgen -seed 1 -out suite.gob          # full five-benchmark suite
//	benchgen -small -seed 7 -out small.gob   # miniature suite
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	hsd "github.com/golitho/hsd"
	"github.com/golitho/hsd/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchgen:", err)
		os.Exit(1)
	}
}

func run() error {
	seed := flag.Int64("seed", 1, "suite generation seed")
	out := flag.String("out", "suite.gob", "output file")
	small := flag.Bool("small", false, "generate the miniature two-benchmark suite")
	workers := flag.Int("workers", 0, "labelling workers (0 = GOMAXPROCS)")
	flag.Parse()

	cfg := hsd.DefaultSuiteConfig(*seed)
	if *small {
		cfg = hsd.SmallSuiteConfig(*seed)
	}
	cfg.Workers = *workers

	t0 := time.Now()
	suite, err := hsd.GenerateSuite(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("generated %d benchmarks in %v\n", len(suite.Benchmarks), time.Since(t0).Round(time.Millisecond))
	fmt.Println(experiments.BenchStats(suite))

	if err := hsd.SaveSuiteFile(*out, suite); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)
	return nil
}
