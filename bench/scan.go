package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	hsd "github.com/golitho/hsd"
	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/nn"
	"github.com/golitho/hsd/internal/raster"
	"github.com/golitho/hsd/internal/scanfarm"
)

const (
	// uniqueEdgeNM sizes the scan_unique chip: 1024 windows of random
	// geometry, ~0.65 s per scan here, so a ten-second run holds enough
	// scans for a steady median.
	uniqueEdgeNM = 16384
	// The scan_repeat memory array: arrayTiles x arrayTiles tiles of one
	// clip window each, in macros of arrayMacro x arrayMacro tiles that
	// repeat a single cell; 65536 windows, a few dozen distinct clips.
	arrayTiles = 128
	arrayMacro = 64
	// arrayCellPool is how many test clips the macros' cells are drawn from.
	arrayCellPool = 16
	// scanCacheSize is hsdscan's default -cache-size.
	scanCacheSize = 4096
)

// scanWorkload is both scan workloads: the same farm configuration over
// a chip with no repeated geometry (every window pays raster, DCT and
// CNN) or over a memory array with a journal (ClipAt, Fingerprint, the
// cache and fsyncs carry the time).
type scanWorkload struct {
	repeat bool
	seed   int64
	env    *env
	chip   *layout.Layout
	cfg    scanfarm.Config
	seq    int // journal file counter
}

func (w *scanWorkload) setup() error {
	e, err := newEnv(w.seed)
	if err != nil {
		return err
	}
	w.env = e
	if w.repeat {
		w.chip, err = arrayChip(w.seed, typicalCells(e.test, arrayCellPool), arrayTiles, arrayMacro)
	} else {
		w.chip, err = hsd.GenerateChip(w.seed+1, uniqueEdgeNM, hsd.DefaultPatternStyle())
	}
	if err != nil {
		return err
	}
	w.cfg = scanfarm.Config{
		ClipNM: clipNM, CoreFrac: coreFrac,
		SkipEmpty: true, Workers: workers(), CacheSize: scanCacheSize,
	}
	return nil
}

func (w *scanWorkload) close() { w.env.close() }

// typicalCells returns the n test clips whose shape counts are closest
// to the split's median. ClipAt and Fingerprint cost grows with the
// shapes in a window, and with four cells per chip an unrestricted draw
// moved scan_repeat by 25 % between seeds; drawn from this pool, a seed
// changes the geometry but not how much of it there is.
func typicalCells(test []hsd.LabeledClip, n int) []layout.Clip {
	counts := make([]float64, len(test))
	for i, lc := range test {
		counts[i] = float64(len(lc.Clip.Shapes))
	}
	med := median(counts)
	order := make([]int, len(test))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return math.Abs(counts[order[a]]-med) < math.Abs(counts[order[b]]-med)
	})
	if n > len(order) {
		n = len(order)
	}
	cells := make([]layout.Clip, n)
	for i := range cells {
		cells[i] = test[order[i]].Clip
	}
	return cells
}

// arrayChip lays out tiles x tiles clip-sized tiles as square macros of
// macro x macro tiles; every tile of a macro repeats one cell, and the
// macros' cells are drawn from cells by the seed. Real memory arrays
// look like this to a window scan: almost every window is a translated
// copy of one already seen.
func arrayChip(seed int64, cells []layout.Clip, tiles, macro int) (*layout.Layout, error) {
	if len(cells) == 0 || tiles <= 0 || macro <= 0 || tiles%macro != 0 {
		return nil, fmt.Errorf("array chip: need cells and tiles divisible into macros, got %d cells, %d/%d", len(cells), tiles, macro)
	}
	rng := rand.New(rand.NewSource(seed))
	per := tiles / macro
	pick := make([]layout.Clip, per*per)
	for i, idx := range rng.Perm(len(cells)) {
		if i == len(pick) {
			break
		}
		pick[i] = cells[idx].Translate()
	}
	for i := len(cells); i < len(pick); i++ {
		pick[i] = pick[i%len(cells)]
	}
	l := layout.New("array")
	for ty := 0; ty < tiles; ty++ {
		for tx := 0; tx < tiles; tx++ {
			cell := pick[(ty/macro)*per+tx/macro]
			off := geom.Pt(tx*clipNM, ty*clipNM)
			for _, s := range cell.Shapes {
				if err := l.AddRect(s.Translate(off)); err != nil {
					return nil, err
				}
			}
		}
	}
	return l, nil
}

// scanOnce is one `hsdscan` scan: a fresh cache (Run builds its own)
// and, for scan_repeat, a fresh fsynced journal as with -journal.
func (w *scanWorkload) scanOnce(nworkers int) (scanfarm.Result, time.Duration, error) {
	cfg := w.cfg
	cfg.Workers = nworkers
	if w.repeat {
		path := filepath.Join(w.env.dir, fmt.Sprintf("scan-%d.journal", w.seq))
		w.seq++
		j, err := scanfarm.CreateJournal(path, cfg.Meta(w.chip, w.env.cnn.Name()))
		if err != nil {
			return scanfarm.Result{}, 0, err
		}
		defer os.Remove(path)
		defer j.Close()
		cfg.Journal = j
	}
	t0 := time.Now()
	res, err := scanfarm.Run(context.Background(), w.chip, w.env.cnn, cfg)
	return res, time.Since(t0), err
}

// scanSeries runs one discarded warm-up scan and then scans for d,
// checking each against the warm-up's findings as it goes.
type scanSeries struct {
	first     scanfarm.Result
	walls     []float64 // seconds
	total     time.Duration
	attempted int
	failed    int
}

func (w *scanWorkload) series(d time.Duration) (scanSeries, error) {
	var s scanSeries
	first, _, err := w.scanOnce(workers())
	if err != nil {
		return s, err
	}
	s.first = first
	runtime.GC()
	start := time.Now()
	for len(s.walls) == 0 || time.Since(start) < d {
		res, wall, err := w.scanOnce(workers())
		if err != nil {
			return s, err
		}
		s.walls = append(s.walls, wall.Seconds())
		s.attempted += res.Windows
		if res.Interrupted || len(res.Quarantined) > 0 {
			s.failed += res.Windows
		} else {
			s.failed += diffFindings(res.Findings, first.Findings)
		}
	}
	s.total = time.Since(start)
	return s, nil
}

// diffFindings counts the windows on which two scans disagree (flagged
// by one only, or flagged with different scores). Equal sets in a
// different order count as one disagreement: order is part of the
// farm's contract.
func diffFindings(got, want []core.Finding) int {
	same := len(got) == len(want)
	for i := 0; same && i < len(got); i++ {
		same = got[i] == want[i]
	}
	if same {
		return 0
	}
	ref := make(map[geom.Point]float64, len(want))
	for _, f := range want {
		ref[f.Center] = f.Score
	}
	n := 0
	for _, f := range got {
		if s, ok := ref[f.Center]; !ok || s != f.Score {
			n++
		}
		delete(ref, f.Center)
	}
	n += len(ref)
	if n == 0 {
		n = 1
	}
	return n
}

// reference computes the findings the farm must reproduce, in row-major
// order, without the farm: the serial core.ScanCtx on scan_unique; on
// scan_repeat, where a cache-less serial scan would take minutes,
// core.ScoreClipCtx on the canonical clip of each distinct fingerprint.
func (w *scanWorkload) reference() ([]core.Finding, error) {
	ctx := context.Background()
	det := w.env.cnn.CloneDetector()
	if !w.repeat {
		res, err := core.ScanCtx(ctx, w.chip, det, core.ScanConfig{
			ClipNM: clipNM, CoreFrac: coreFrac, Workers: 1, SkipEmpty: true})
		return res.Findings, err
	}
	plan := scanfarm.NewPlan(w.chip.Bounds(), w.cfg)
	scores := make(map[layout.Fingerprint]float64)
	var out []core.Finding
	for id := 0; id < plan.NumShards; id++ {
		for _, center := range plan.ShardWindows(id) {
			clip, err := w.chip.ClipAt(center, plan.ClipNM, plan.CoreFrac)
			if err != nil {
				return nil, err
			}
			if len(clip.Shapes) == 0 {
				continue
			}
			canon := clip.Translate()
			key := canon.Fingerprint()
			score, ok := scores[key]
			if !ok {
				if score, err = core.ScoreClipCtx(ctx, det, canon); err != nil {
					return nil, err
				}
				scores[key] = score
			}
			if score >= det.Threshold() {
				out = append(out, core.Finding{Center: center, Score: score})
			}
		}
	}
	return out, nil
}

// checkHitRate asserts the property that makes the two scans different
// workloads.
func (w *scanWorkload) checkHitRate(st scanfarm.CacheStats, r *result) {
	rate := st.HitRate()
	if w.repeat && rate < 0.995 {
		r.fail("scan_repeat clip-cache hit rate %.4f < 0.995", rate)
	}
	if !w.repeat && rate > 0.01 {
		r.fail("scan_unique clip-cache hit rate %.4f > 0.01", rate)
	}
}

func (w *scanWorkload) measure(d time.Duration, r *result) error {
	s, err := w.series(d)
	if err != nil {
		return err
	}
	ref, err := w.reference()
	if err != nil {
		return err
	}
	r.attempted = s.attempted
	r.failed = s.failed + len(s.walls)*diffFindings(s.first.Findings, ref)
	w.checkHitRate(s.first.Cache, r)
	r.set("throughput_per_s", float64(s.attempted)/s.total.Seconds())
	r.set("latency_p50_ms", 1000*median(s.walls))
	r.note("%d scans of %d windows, %d findings each, cache hit rate %.4f",
		len(s.walls), s.first.Windows, len(s.first.Findings), s.first.Cache.HitRate())
	return nil
}

// replay is the farm's per-window pipeline performed by the benchmark
// itself, serially, with a span around every call into a layer. It
// keeps its own ClipCache (and journal on scan_repeat) so hits, misses
// and fsyncs reproduce. The standalone raster.Rasterize call on every
// miss exists only to split features.extract into raster and DCT; it
// sits outside the window span so it is not counted as pipeline time.
// sample collects the first 64 misses as the layer block's clips.
func (w *scanWorkload) replay(tr *tracer, sample *[]layout.Clip) ([]core.Finding, time.Duration, error) {
	nd := w.env.cnn.CloneDetector().(*hsd.NeuralDetector)
	net, ex, thr := nd.Network(), nd.Ex, nd.Threshold()
	plan := scanfarm.NewPlan(w.chip.Bounds(), w.cfg)
	cache := scanfarm.NewClipCache(w.cfg.CacheSize)
	var journal *scanfarm.Journal
	if w.repeat {
		path := filepath.Join(w.env.dir, "replay.journal")
		j, err := scanfarm.CreateJournal(path, w.cfg.Meta(w.chip, nd.Name()))
		if err != nil {
			return nil, 0, err
		}
		defer os.Remove(path)
		defer j.Close()
		journal = j
	}
	var findings []core.Finding
	op := 0
	t0 := time.Now()
	for id := 0; id < plan.NumShards; id++ {
		shardStart := len(findings)
		for _, center := range plan.ShardWindows(id) {
			op++
			root := tr.begin("window", -1, op)
			sp := tr.begin("layout.clipat", root, op)
			clip, err := w.chip.ClipAt(center, plan.ClipNM, plan.CoreFrac)
			tr.end(sp)
			if err != nil {
				return nil, 0, err
			}
			if len(clip.Shapes) == 0 {
				tr.end(root)
				continue
			}
			sp = tr.begin("layout.fingerprint", root, op)
			canon := clip.Translate()
			key := canon.Fingerprint()
			tr.end(sp)
			sp = tr.begin("scanfarm.cache_get", root, op)
			score, hit := cache.Get(key)
			tr.end(sp)
			if !hit {
				sp = tr.begin("features.extract", root, op)
				v, err := ex.Extract(canon)
				tr.end(sp)
				if err != nil {
					return nil, 0, err
				}
				sp = tr.begin("nn.score", root, op)
				score = nn.Score(net, v)
				tr.end(sp)
				sp = tr.begin("scanfarm.cache_put", root, op)
				cache.Put(key, score)
				tr.end(sp)
			}
			tr.end(root)
			if !hit && tr.on {
				sp = tr.begin("raster.rasterize", -1, op)
				_, err := raster.Rasterize(raster.Config{Window: canon.Window, PixelNM: 8}, canon.Shapes)
				tr.end(sp)
				if err != nil {
					return nil, 0, err
				}
				if len(*sample) < 64 {
					*sample = append(*sample, canon)
				}
			}
			if score >= thr {
				findings = append(findings, core.Finding{Center: center, Score: score})
			}
		}
		if journal != nil {
			sp := tr.begin("scanfarm.journal_append", -1, -1)
			err := journal.Append(scanfarm.ShardRecord{
				ShardID: id, State: scanfarm.ShardDone, Attempts: 1, Findings: findings[shardStart:]})
			tr.end(sp)
			if err != nil {
				return nil, 0, err
			}
		}
	}
	return findings, time.Since(t0), nil
}

// verifyFindings simulates every finding on workers() goroutines, the
// `hsdscan -verify` flow, and returns its wall time: the second term of
// the paper's ODST.
func (w *scanWorkload) verifyFindings(findings []core.Finding) (time.Duration, error) {
	sim, err := hsd.NewSimulator(hsd.DefaultSimConfig())
	if err != nil {
		return 0, err
	}
	n := workers()
	errs := make([]error, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(findings); i += n {
				clip, err := w.chip.ClipAt(findings[i].Center, clipNM, coreFrac)
				if err == nil {
					_, err = sim.SimulateCtx(context.Background(), clip)
				}
				if err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	wall := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return wall, nil
}

func (w *scanWorkload) traced(d time.Duration, r *result, tr *tracer) error {
	n := workers()
	// Untraced scans at full width: the figures the sweep and the
	// overhead fractions are relative to.
	s, err := w.series(d / 3)
	if err != nil {
		return err
	}
	r.attempted, r.failed = s.attempted, s.failed
	w.checkHitRate(s.first.Cache, r)
	wall := median(s.walls)
	windows := float64(s.first.Windows)
	r.set("scanfarm.cache_hit_rate", s.first.Cache.HitRate())

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, _, err := w.scanOnce(n); err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	r.set("scanfarm.alloc_mb_per_scan", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	r.set("scanfarm.allocs_per_window", float64(m1.Mallocs-m0.Mallocs)/windows)

	// Scaling sweep: the farm on one worker, and the second scan loop.
	var walls1 []float64
	for t0 := time.Now(); len(walls1) == 0 || time.Since(t0) < d/8; {
		_, w1, err := w.scanOnce(1)
		if err != nil {
			return err
		}
		walls1 = append(walls1, w1.Seconds())
	}
	wall1 := median(walls1)
	r.set("scanfarm.windows_per_s_w1", windows/wall1)
	r.set("scanfarm.scaling_eff", wall1/(float64(n)*wall))
	if !w.repeat {
		t0 := time.Now()
		res, err := core.ScanCtx(context.Background(), w.chip, w.env.cnn, core.ScanConfig{
			ClipNM: clipNM, CoreFrac: coreFrac, Workers: n, SkipEmpty: true})
		if err != nil {
			return err
		}
		r.set("core.scan_windows_per_s", float64(res.Windows)/time.Since(t0).Seconds())
		r.failed += diffFindings(s.first.Findings, res.Findings)

		verify, err := w.verifyFindings(s.first.Findings)
		if err != nil {
			return err
		}
		r.set("odst_s", wall+verify.Seconds())
		r.set("lithosim.verify_s", verify.Seconds())
	}

	// The same serial replay with the tracer off and on: the difference
	// is what tracing costs.
	tr.on = false
	var sample []layout.Clip
	_, off, err := w.replay(tr, &sample)
	if err != nil {
		return err
	}
	tr.on = true
	findings, on, err := w.replay(tr, &sample)
	if err != nil {
		return err
	}
	r.failed += diffFindings(findings, s.first.Findings)

	// The standalone rasterize calls are not pipeline: their time comes
	// off the traced wall before it is compared with anything.
	layers := tr.byLayer()
	var pipeline, detector time.Duration
	traced := on
	for name, st := range layers {
		if name == "raster.rasterize" {
			traced -= st.total
			continue
		}
		pipeline += st.self
		if name == "features.extract" || name == "nn.score" {
			detector += st.self
		}
	}
	r.set("trace.overhead_frac", traced.Seconds()/off.Seconds()-1)
	// Coverage is the spans' share of the traced replay times the
	// untraced replay's wall over the farm's at one worker: it drops
	// when spans miss part of the loop or the replay is not the farm.
	// Written this way the tracer's own cost, large next to a 3 us cache
	// hit, cancels instead of inflating the sum of self times.
	r.set("trace.coverage_frac", pipeline.Seconds()/traced.Seconds()*off.Seconds()/wall1)
	r.set("scanfarm.overhead_frac", 1-off.Seconds()/(wall*float64(n)))
	r.set("scanfarm.detector_time_frac", float64(detector)/float64(pipeline))
	r.note("scan at %d workers: median %.3f s over %d scans; at 1 worker %.3f s over %d; serial replay %.3f s untraced, %.3f s traced",
		n, wall, len(s.walls), wall1, len(walls1), off.Seconds(), traced.Seconds())

	return measureLayers(tr, r, w.env, sample)
}
