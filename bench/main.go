// Command bench is the repository's benchmark: four workloads over the
// whole stack (two full-chip scans, closed-loop serving, the
// active-learning cycle), each checked for correctness, with
// end-to-end metrics from untraced runs and a per-layer budget from a
// separate traced pass. BENCHMARK.json at the repository root is its
// contract; bench/README.md explains the workloads and metrics.
//
//	go run ./bench --workload scan_unique --seed 1 --seconds 10 --trace 0
//	go run ./bench --seed 1              # every workload, both passes
//	go run ./bench --aa 3                # two sets of 3 runs, compared against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupRuns is how many times a run sets up from scratch; setup_s is
// their median, and the last set-up is the one measured on.
const setupRuns = 3

var workloadNames = []string{"scan_unique", "scan_repeat", "serve_closed", "learn_cycle"}

// workload is one set of inputs and the operations run on it.
type workload interface {
	// setup builds everything from the seed up to the first timed
	// operation: suite, detector fit, chip or server or WAL.
	setup() error
	close()
	// measure runs the workload untraced for d, checks its outputs, and
	// sets the end-to-end metrics.
	measure(d time.Duration, r *result) error
	// traced is the per-layer pass: short untraced phases for the
	// sweeps, a serial replay under tr, and the layer block.
	traced(d time.Duration, r *result, tr *tracer) error
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "scan_unique":
		return &scanWorkload{seed: seed}, nil
	case "scan_repeat":
		return &scanWorkload{seed: seed, repeat: true}, nil
	case "serve_closed":
		return &serveWorkload{seed: seed}, nil
	case "learn_cycle":
		return &learnWorkload{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// result is one run's outcome: operation counts, whether every check
// held, and the metrics by name.
type result struct {
	attempted, failed int
	incorrect         []string
	metrics           map[string]float64
	notes             []string
	layers            map[string]layerStat
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a broken workload property (not a failed operation).
func (r *result) fail(format string, args ...any) {
	r.incorrect = append(r.incorrect, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return r.failed == 0 && len(r.incorrect) == 0 }

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// contract is the part of BENCHMARK.json the program needs: which
// metrics to print in which pass, their units, and the bounds --aa
// compares against.
type contract struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadContract() (contract, error) {
	var c contract
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return c, fmt.Errorf("run from the repository root: %w", err)
	}
	if err := json.Unmarshal(data, &c); err != nil {
		return c, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return c, nil
}

// runOne performs one contract run of one workload and returns its
// result with exactly the metrics of the requested pass.
func runOne(c contract, name string, seed int64, d time.Duration, traced bool, setups int, outDir string) (*result, error) {
	r := &result{metrics: make(map[string]float64)}
	var w workload
	var setupS []float64
	for i := 0; i < setups; i++ {
		if w != nil {
			w.close()
		}
		var err error
		if w, err = newWorkload(name, seed); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer w.close()
	runtime.GC()

	defs := c.EndToEnd
	if traced {
		defs = c.PerLayer
		tr := newTracer()
		if err := w.traced(d, r, tr); err != nil {
			return nil, fmt.Errorf("%s traced pass: %w", name, err)
		}
		// A measurement, not an output: out of range means the layer
		// table no longer explains the workload, not that a verdict is wrong.
		if cov := r.metrics["trace.coverage_frac"]; cov < 0.85 || cov > 1.15 {
			r.note("WARNING: trace.coverage_frac %.3f outside [0.85, 1.15]", cov)
		}
		if outDir != "" {
			if err := writeTrace(outDir, name, tr, r); err != nil {
				return nil, err
			}
		}
	} else {
		if err := w.measure(d, r); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		r.set("setup_s", median(setupS))
		r.note("set-up times %.3f s", setupS)
	}
	// Exactly the pass's metrics: a per-layer metric that is not on
	// this workload's path reads 0.
	out := make(map[string]float64, len(defs))
	for _, def := range defs {
		out[def.Name] = r.metrics[def.Name]
		delete(r.metrics, def.Name)
	}
	for name := range r.metrics {
		return nil, fmt.Errorf("metric %s is not in BENCHMARK.json", name)
	}
	r.metrics = out
	return r, nil
}

func writeTrace(dir, name string, tr *tracer, r *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".trace.json"))
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	t, err := os.Create(filepath.Join(dir, name+".layers.txt"))
	if err != nil {
		return err
	}
	writeLayerTable(t, r.layers)
	return t.Close()
}

// jsonLine is the contract's result object.
type jsonLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the run for a reader, then (when last) the result
// object as the final line of standard output.
func report(name string, r *result, defs []metricDef, last bool) error {
	fmt.Printf("== %s: %d attempted, %d failed\n", name, r.attempted, r.failed)
	for _, n := range r.notes {
		fmt.Printf("   %s\n", n)
	}
	for _, msg := range r.incorrect {
		fmt.Printf("   INCORRECT: %s\n", msg)
	}
	line := jsonLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]jsonMetric, len(defs))}
	for _, def := range defs {
		v := r.metrics[def.Name]
		fmt.Printf("   %-30s %14.6g %-6s (%s is better)\n", def.Name, v, def.Unit, def.Better)
		line.Metrics[def.Name] = jsonMetric{Value: v, Unit: def.Unit}
	}
	if r.layers != nil {
		writeLayerTable(os.Stdout, r.layers)
	}
	if !last {
		return nil
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func main() {
	name := flag.String("workload", "all", "one of scan_unique, scan_repeat, serve_closed, learn_cycle, or all")
	seed := flag.Int64("seed", 1, "seed of every generated input: suite, chips, request order")
	seconds := flag.Int("seconds", 10, "how long one run measures")
	traceOn := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced pass, per-layer metrics")
	outDir := flag.String("out", "", "with a traced pass: write <workload>.trace.json (Chrome trace) and <workload>.layers.txt here")
	aa := flag.Int("aa", 0, "run two sets of this many runs per workload on this build and compare them against the bounds")
	quick := flag.Bool("quick", false, "smoke run: every workload once, 2 s, untraced, correctness checks on")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traceOn == 1, *outDir, *aa, *quick); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, outDir string, aa int, quick bool) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	c, err := loadContract()
	if err != nil {
		return err
	}
	if aa > 0 {
		return runAA(c, seed, seconds, aa)
	}
	d := time.Duration(seconds) * time.Second
	if quick {
		d = 2 * time.Second
	}
	// one runs and reports a single pass of a single workload.
	one := func(wl string, traced, last bool) (bool, error) {
		setups, defs := setupRuns, c.EndToEnd
		if traced {
			defs = c.PerLayer
		}
		if traced || quick {
			setups = 1 // setup_s is reported by the untraced contract run only
		}
		r, err := runOne(c, wl, seed, d, traced, setups, outDir)
		if err != nil {
			return false, err
		}
		return r.correct(), report(wl, r, defs, last)
	}
	bad := 0
	if name != "all" {
		ok, err := one(name, traced, true)
		if err != nil {
			return err
		}
		if !ok {
			bad++
		}
	} else {
		// Every workload: the untraced run, then the traced pass.
		for _, wl := range workloadNames {
			for _, pass := range []bool{false, true} {
				if quick && pass {
					continue
				}
				ok, err := one(wl, pass, false)
				if err != nil {
					return err
				}
				if !ok {
					bad++
				}
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d runs had failed operations or broken checks", bad)
	}
	return nil
}
