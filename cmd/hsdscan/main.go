// Command hsdscan runs full-chip hotspot scanning: it trains a zoo
// detector on a benchmark and slides it across a chip layout, printing
// the flagged windows (optionally verified with lithography simulation).
//
// Usage:
//
//	hsdscan -suite suite.gob -bench B1 -detector AdaBoost -gen-edge 32768
//	hsdscan -suite suite.gob -chip chip.glt -detector CNN-biased -verify
//	hsdscan -suite suite.gob -trace scan.json   # per-window span timeline
//	hsdscan -suite suite.gob -journal scan.journal            # crash-safe
//	hsdscan -suite suite.gob -journal scan.journal -resume    # pick up
//
// The scan runs through the fault-tolerant shard coordinator: the chip
// is tiled into row-band shards fanned out to -workers goroutines, a
// failing shard is retried with backoff and quarantined (reported, not
// fatal) after exhausting its attempts, and repeated geometry is
// answered from a content-addressed clip cache (-cache-size). With
// -journal each completed shard is persisted, so a killed scan rerun
// with -resume skips finished shards and produces identical findings.
//
// -trace writes the scan as a Chrome trace_event JSON file: one
// "hsdscan" root span with a "scan.shard" span per shard and the
// raster/features/inference stages nested inside each. Load it in
// about:tracing or https://ui.perfetto.dev.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	hsd "github.com/golitho/hsd"
	"github.com/golitho/hsd/internal/cli"
	"github.com/golitho/hsd/internal/qualitymon"
	"github.com/golitho/hsd/internal/router"
	"github.com/golitho/hsd/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hsdscan:", err)
		os.Exit(1)
	}
}

func run() error {
	suitePath := flag.String("suite", "suite.gob", "suite gob file for training")
	benchName := flag.String("bench", "", "training benchmark (default: first)")
	detName := flag.String("detector", "AdaBoost", "zoo detector name")
	chipPath := flag.String("chip", "", "chip layout in GLT format (empty = generate)")
	genEdge := flag.Int("gen-edge", 16384, "generated chip edge in nm when -chip is empty")
	genSeed := flag.Int64("gen-seed", 42, "generated chip seed")
	seed := flag.Int64("seed", 1, "training seed")
	verify := flag.Bool("verify", false, "verify findings with lithography simulation")
	topN := flag.Int("top", 20, "print at most this many findings")
	metrics := flag.Bool("metrics", false, "print scan telemetry snapshot after scanning")
	traceOut := flag.String("trace", "", "write the scan as Chrome trace_event JSON to this file (about:tracing / ui.perfetto.dev)")
	workers := flag.Int("workers", 0, "scan worker goroutines (0 = GOMAXPROCS)")
	shardRows := flag.Int("shard-rows", 0, "window-grid rows per shard (0 = default)")
	journalPath := flag.String("journal", "", "persist completed shards to this journal file for crash-safe resume")
	resume := flag.Bool("resume", false, "resume from -journal, skipping shards it records")
	cacheSize := flag.Int("cache-size", 4096, "content-addressed clip cache capacity in entries (0 disables)")
	findingsOut := flag.String("findings", "", "write findings deterministically, one per line, to this file")
	var routerFlags cli.RouterFlags
	routerFlags.Register(flag.CommandLine)
	qualityBaseline := flag.String("quality-baseline", "", "training-score baseline (from hsdtrain -quality-baseline); prints a drift report over the scanned windows")
	version := flag.Bool("version", false, "print build info (the hotspot_build_info fields) and exit")
	flag.Parse()

	if *version {
		fmt.Println(cli.Version("hsdscan"))
		return nil
	}

	if *resume && *journalPath == "" {
		return fmt.Errorf("-resume requires -journal")
	}
	// The same loud-failure contract as hsdlearn: creating a journal
	// truncates the file, and doing that to one that is there without
	// saying -resume would throw away a killed scan's durable shards.
	if st, err := os.Stat(*journalPath); !*resume && err == nil && st.Size() > 0 {
		return fmt.Errorf("journal %s already exists; pass -resume to continue it, or remove it for a fresh run", *journalPath)
	}

	_, bench, err := cli.LoadBenchmark(*suitePath, *benchName)
	if err != nil {
		return err
	}
	spec, err := cli.Spec(*seed, *detName)
	if err != nil {
		return err
	}

	var chip *hsd.Layout
	if *chipPath != "" {
		cf, err := os.Open(*chipPath)
		if err != nil {
			return err
		}
		if strings.HasSuffix(*chipPath, ".gds") || strings.HasSuffix(*chipPath, ".gdsii") {
			chip, err = hsd.ReadGDSII(cf)
		} else {
			chip, err = hsd.ReadLayout(cf)
		}
		cf.Close()
		if err != nil {
			return err
		}
	} else {
		chip, err = hsd.GenerateChip(*genSeed, *genEdge, hsd.DefaultPatternStyle())
		if err != nil {
			return err
		}
		fmt.Printf("generated %d x %d nm chip with %d shapes\n",
			*genEdge, *genEdge, chip.NumShapes())
	}

	// nil without -metrics: the farm and the router then count nothing.
	var reg *hsd.MetricsRegistry
	if *metrics {
		reg = hsd.NewMetricsRegistry()
	}
	det, fitTook, err := cli.Train(spec, bench, func(det hsd.Detector) error {
		if rt, ok := det.(*hsd.RouterDetector); ok {
			rt.SetHooks(router.Hooks{Metrics: reg})
		}
		return routerFlags.Apply(det)
	})
	if err != nil {
		return err
	}
	rt, isRouter := det.(*hsd.RouterDetector)
	fmt.Printf("trained %s on %s in %v\n", det.Name(), bench.Name, fitTook.Round(time.Millisecond))
	ctx := context.Background()
	var tracer *trace.Tracer
	var root *trace.Span
	if *traceOut != "" {
		tracer = trace.New(trace.Config{Capacity: 4, Shards: 1})
		ctx = trace.WithTracer(ctx, tracer)
		ctx, root = trace.Start(ctx, "hsdscan",
			trace.A("detector", det.Name()), trace.A("chip", chip.Name))
	}
	// Drift report: every scanned window lands in a quality monitor
	// whose baseline is the training-score histogram. One giant
	// sub-window keeps the whole scan inside the sketch ring regardless
	// of how long it runs.
	var qm *qualitymon.Monitor
	if *qualityBaseline != "" {
		b, err := qualitymon.LoadBaselineFile(*qualityBaseline)
		if err != nil {
			return fmt.Errorf("-quality-baseline: %w", err)
		}
		// The scanfarm taps stage "scan"; the training baseline records
		// stage "primary" for the same detector. Rekey so they compare.
		for i := range b.Entries {
			if b.Entries[i].Stage == "primary" {
				b.Entries[i].Stage = "scan"
			}
		}
		b.Sort()
		qm = qualitymon.New(qualitymon.Options{SubWindow: 24 * time.Hour})
		defer qm.Close()
		qm.InstallBaseline(b)
	}
	farmCfg := hsd.ScanFarmConfig{
		SkipEmpty: true,
		Workers:   *workers,
		ShardRows: *shardRows,
		CacheSize: *cacheSize,
		Metrics:   reg,
		Quality:   qm,
	}
	if *journalPath != "" {
		meta := farmCfg.Meta(chip, det.Name())
		var j *hsd.ScanJournal
		if *resume {
			var completed map[int]hsd.ScanShardRecord
			j, completed, err = hsd.ResumeScanJournal(*journalPath, meta)
			if err != nil {
				return fmt.Errorf("resume %s: %w", *journalPath, err)
			}
			farmCfg.Completed = completed
			fmt.Printf("resuming from %s: %d shards already journaled\n",
				*journalPath, len(completed))
			if t := j.Tail(); t.Discarded > 0 {
				fmt.Printf("resuming from %s: discarded %d bytes after offset %d; their shards are rescanned\n",
					*journalPath, t.Discarded, t.Offset)
			}
		} else {
			j, err = hsd.CreateScanJournal(*journalPath, meta)
			if err != nil {
				return err
			}
		}
		defer j.Close()
		farmCfg.Journal = j
	}
	t1 := time.Now()
	res, err := hsd.ScanFarm(ctx, chip, det, farmCfg)
	root.End()
	if err != nil {
		return err
	}
	findings := res.Findings
	took := time.Since(t1)
	fmt.Printf("scan flagged %d windows in %v; scanned %d windows this run, %.0f windows/s\n",
		len(findings), took.Round(time.Millisecond), res.Scanned, float64(res.Scanned)/took.Seconds())
	fmt.Printf("shards: %d done (%d resumed from journal), %d quarantined, %d windows\n",
		res.Completed, res.Resumed, len(res.Quarantined), res.Windows)
	for _, q := range res.Quarantined {
		fmt.Printf("QUARANTINED shard %d bounds=%v after %d attempts: %s\n",
			q.ShardID, q.Bounds, q.Attempts, q.Err)
	}
	if *cacheSize > 0 {
		st := res.Cache
		fmt.Printf("clip cache: %d hits, %d misses, %d evictions (hit rate %.1f%%)\n",
			st.Hits, st.Misses, st.Evictions, 100*st.HitRate())
	}
	if res.Interrupted {
		fmt.Printf("scan interrupted (%v); journaled shards can be resumed with -resume\n", res.Cause)
	}
	if isRouter {
		cli.PrintRouterStats(rt.Stats())
	}
	if qm != nil {
		snap := qm.Snapshot()
		for _, sk := range snap.Sketches {
			if !sk.Baseline {
				continue
			}
			fmt.Printf("drift %s/%s: psi=%.4f max_bin_kl=%.4f over %d windows (p50=%.3f p90=%.3f p99=%.3f)\n",
				sk.Detector, sk.Stage, sk.PSI, sk.MaxBinKL, sk.Slow, sk.P50, sk.P90, sk.P99)
		}
		fmt.Printf("quality alert: %s (max psi %.4f on %s)\n",
			snap.Alert.Name, snap.Alert.MaxPSI, snap.Alert.MaxPSIBy)
	}
	if *findingsOut != "" {
		if err := writeFindings(*findingsOut, findings); err != nil {
			return err
		}
		fmt.Printf("wrote %d findings to %s\n", len(findings), *findingsOut)
	}
	if tracer != nil {
		if err := writeChromeTrace(*traceOut, tracer); err != nil {
			return err
		}
		fmt.Printf("wrote scan trace to %s (load in about:tracing or ui.perfetto.dev)\n", *traceOut)
	}

	var sim *hsd.Simulator
	if *verify {
		sim, err = hsd.NewSimulator(hsd.DefaultSimConfig())
		if err != nil {
			return err
		}
	}
	confirmed := 0
	for i, fd := range findings {
		if i >= *topN {
			fmt.Printf("... %d more\n", len(findings)-*topN)
			break
		}
		line := fmt.Sprintf("%3d. center=%v score=%.3f", i+1, fd.Center, fd.Score)
		if sim != nil {
			clip, err := chip.ClipAt(fd.Center, 1024, 0.5)
			if err != nil {
				return err
			}
			res, err := sim.Simulate(clip)
			if err != nil {
				return err
			}
			line += fmt.Sprintf("  verified=%v defects=%d", res.Hotspot, len(res.Defects))
			if res.Hotspot {
				confirmed++
			}
		}
		fmt.Println(line)
	}
	if sim != nil {
		n := len(findings)
		if n > *topN {
			n = *topN
		}
		if n > 0 {
			fmt.Printf("verified precision over printed findings: %d/%d\n", confirmed, n)
		}
		st := sim.Stats()
		fmt.Printf("measured ODST: %d simulations in %v\n", st.Simulations, st.Elapsed.Round(time.Millisecond))
	}
	if reg != nil {
		fmt.Println("--- scan telemetry ---")
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// writeFindings dumps findings one per line in scan order. The format
// is deterministic — integer centers and shortest round-trip float
// scores — so two runs over the same chip diff clean; the resume smoke
// test relies on that.
func writeFindings(path string, findings []hsd.Finding) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, fd := range findings {
		fmt.Fprintf(w, "%d %d %s\n", fd.Center.X, fd.Center.Y,
			strconv.FormatFloat(fd.Score, 'g', -1, 64))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeChromeTrace dumps every trace the tracer retained as one Chrome
// trace_event JSON file.
func writeChromeTrace(path string, tracer *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, tracer.Traces(0)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
