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
// is tiled into row-band shards fanned out to -workers goroutines, each
// shard is scanned once and a failing one is quarantined (reported with
// its bounds and failing window, not fatal), and repeated geometry is
// answered from a content-addressed clip cache (-cache-size). With
// -journal completed shards are persisted in groups, one fsync every
// 10 ms of scanning, and the scan returns only once each is durable; a
// killed scan loses at most the last 10 ms of completed shards, and
// rerun with -resume it rescans those, skips the rest and produces
// identical findings.
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
	"github.com/golitho/hsd/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hsdscan:", err)
		os.Exit(1)
	}
}

func run() error {
	suitePath := flag.String("suite", "suite.gob", "suite file for training")
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
	cacheSize := flag.Int("cache-size", 4096, "content-addressed clip cache capacity in entries, shared by the workers; each worker also keeps up to min(256, N) verdicts it last used (0 disables)")
	findingsOut := flag.String("findings", "", "write findings deterministically, one per line, to this file")
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

	suite, bench, err := cli.LoadBenchmark(*suitePath, *benchName)
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

	// nil without -metrics: the farm then counts nothing.
	var reg *hsd.MetricsRegistry
	if *metrics {
		reg = hsd.NewMetricsRegistry()
	}
	det, fitTook, err := cli.Train(spec, bench, nil)
	if err != nil {
		return err
	}
	fmt.Printf("trained %s on %s in %v\n", det.Name(), bench.Name, fitTook.Round(time.Millisecond))
	ctx := context.Background()
	var tracer *trace.Tracer
	var root *trace.Span
	if *traceOut != "" {
		tracer = trace.New(trace.Config{Capacity: 4})
		ctx = trace.WithTracer(ctx, tracer)
		ctx, root = trace.Start(ctx, "hsdscan",
			trace.A("detector", det.Name()), trace.A("chip", chip.Name))
	}
	// The windows are the suite's, the geometry the detector was trained
	// at.
	farmCfg := hsd.ScanFarmConfig{
		ClipNM:    suite.Config.ClipNM,
		CoreFrac:  suite.Config.CoreFrac,
		SkipEmpty: true,
		Workers:   *workers,
		ShardRows: *shardRows,
		CacheSize: *cacheSize,
		Metrics:   reg,
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
		fmt.Printf("QUARANTINED shard %d bounds=%v: %s\n", q.ShardID, q.Bounds, q.Err)
	}
	if *cacheSize > 0 {
		st := res.Cache
		fmt.Printf("clip cache: %d hits, %d misses, %d evictions (hit rate %.1f%%)\n",
			st.Hits, st.Misses, st.Evictions, 100*st.HitRate())
	}
	if res.Interrupted {
		fmt.Printf("scan interrupted (%v); journaled shards can be resumed with -resume\n", res.Cause)
	}
	if *findingsOut != "" {
		if err := writeFindings(*findingsOut, findings); err != nil {
			return err
		}
		fmt.Printf("wrote %d findings to %s\n", len(findings), *findingsOut)
	}
	if tracer != nil {
		if _, err := cli.WriteChromeTrace(*traceOut, tracer); err != nil {
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
			clip, err := chip.ClipAt(fd.Center, suite.Config.ClipNM, suite.Config.CoreFrac)
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
		fmt.Printf("verified the %d printed findings of %d: %d simulations in %v\n", n, len(findings), st.Simulations, st.Elapsed.Round(time.Millisecond))
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
