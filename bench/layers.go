package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"

	hsd "github.com/golitho/hsd"
	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/datengine"
	"github.com/golitho/hsd/internal/fft"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/nn"
	"github.com/golitho/hsd/internal/raster"
	"github.com/golitho/hsd/internal/scanfarm"
	"github.com/golitho/hsd/internal/tensor"
)

// measureLayers completes a traced pass: every layer the workload's own
// replay did not already record is called here on the workload's clips,
// one span per call, and the per-layer metrics common to all workloads
// are then read off the spans. A layer the replay did cover keeps the
// replay's spans, so a metric has one source per run.
func measureLayers(tr *tracer, r *result, e *env, clips []layout.Clip) error {
	if len(clips) == 0 {
		return fmt.Errorf("layer block: the workload produced no clips")
	}
	if len(clips) > 64 {
		clips = clips[:64]
	}
	seen := make(map[string]bool)
	for _, s := range tr.spans {
		seen[s.name] = true
	}
	// each records one span per call of fn unless the replay has the layer.
	each := func(name string, n int, fn func(i int) error) error {
		if seen[name] {
			return nil
		}
		for i := 0; i < n; i++ {
			sp := tr.begin(name, -1, -1)
			err := fn(i)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	ctx := context.Background()
	nd := e.cnn.CloneDetector().(*hsd.NeuralDetector)
	net := nd.Network()
	clip := func(i int) layout.Clip { return clips[i%len(clips)] }

	bodies := make([][]byte, len(clips))
	parsed := make([]*layout.Layout, len(clips))
	feats := make([][]float64, len(clips))
	keys := make([]layout.Fingerprint, len(clips))
	for i, c := range clips {
		var err error
		if bodies[i], err = gltBody(c); err != nil {
			return err
		}
		if parsed[i], err = layout.Read(bytes.NewReader(bodies[i])); err != nil {
			return err
		}
		if feats[i], err = nd.Ex.Extract(c); err != nil {
			return err
		}
		keys[i] = c.Translate().Fingerprint()
	}
	batch := make([][]float64, 64)
	batchClips := make([]layout.Clip, 64)
	for i := range batch {
		batch[i], batchClips[i] = feats[i%len(feats)], clip(i)
	}

	sim, err := hsd.NewSimulator(hsd.DefaultSimConfig())
	if err != nil {
		return err
	}
	block := make([]float64, 64)
	for i := range block {
		block[i] = float64(i%7) / 7
	}
	ma, mb, mc := tensor.NewMatrix(192, 192), tensor.NewMatrix(192, 192), tensor.NewMatrix(192, 192)
	for i := range ma.Data {
		ma.Data[i], mb.Data[i] = float64(i%13)/13, float64(i%11)/11
	}
	cache := scanfarm.NewClipCache(scanCacheSize)

	journalPath := filepath.Join(e.dir, "layers.journal")
	journal, err := scanfarm.CreateJournal(journalPath, scanfarm.Meta{Chip: "layers", Detector: nd.Name()})
	if err != nil {
		return err
	}
	defer os.Remove(journalPath)
	defer journal.Close()
	walPath := filepath.Join(e.dir, "layers.wal")
	wal, err := datengine.CreateWAL(walPath, datengine.Meta{Detector: e.spec.Name})
	if err != nil {
		return err
	}
	defer os.Remove(walPath)
	defer wal.Close()

	n := len(clips)
	steps := []struct {
		name string
		n    int
		fn   func(i int) error
	}{
		{"layout.read", n, func(i int) error {
			_, err := layout.Read(bytes.NewReader(bodies[i]))
			return err
		}},
		{"layout.clipat", n, func(i int) error {
			_, err := parsed[i].ClipAt(parsed[i].Bounds().Center(), clipNM, coreFrac)
			return err
		}},
		{"layout.fingerprint", n, func(i int) error {
			_ = clips[i].Translate().Fingerprint()
			return nil
		}},
		{"raster.rasterize", n, func(i int) error {
			_, err := raster.Rasterize(raster.Config{Window: clips[i].Window, PixelNM: 8}, clips[i].Shapes)
			return err
		}},
		{"features.extract", n, func(i int) error {
			_, err := nd.Ex.Extract(clips[i])
			return err
		}},
		{"nn.score", n, func(i int) error {
			_ = nn.Score(net, feats[i])
			return nil
		}},
		{"core.score", n, func(i int) error {
			_, err := core.ScoreClipCtx(ctx, nd, clips[i])
			return err
		}},
		{"nn.batch64", 5, func(int) error {
			_, err := nn.PredictBatch(net, batch, workers())
			return err
		}},
		{"core.scorebatch", 3, func(int) error {
			_, err := nd.ScoreBatch(batchClips)
			return err
		}},
		{"fft.dct2d_block", 2000, func(int) error {
			_, err := fft.DCT2D(block, 8)
			return err
		}},
		{"tensor.matmul", 10, func(int) error {
			tensor.MatMulInto(mc, ma, mb)
			return nil
		}},
		{"lithosim.simulate", 32, func(i int) error {
			_, err := sim.SimulateCtx(ctx, clip(i))
			return err
		}},
		{"scanfarm.cache_put", n, func(i int) error {
			cache.Put(keys[i], 0.5)
			return nil
		}},
		{"scanfarm.cache_get", n, func(i int) error {
			cache.Get(keys[i])
			return nil
		}},
		{"scanfarm.journal_append", 32, func(i int) error {
			return journal.Append(scanfarm.ShardRecord{ShardID: i, State: scanfarm.ShardDone, Attempts: 1,
				Findings: []core.Finding{{Center: clip(i).Window.Center(), Score: 0.75}}})
		}},
		{"datengine.wal_append", 32, func(i int) error {
			return wal.Append(datengine.Record{Kind: datengine.RecLabel, FP: keys[i%n], BatchID: 1, Hotspot: i%2 == 0})
		}},
	}
	for _, st := range steps {
		if err := each(st.name, st.n, st.fn); err != nil {
			return err
		}
	}

	// Bytes allocated by one serial forward pass, outside any span so
	// the tracer's own appends are not counted.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < 32; i++ {
		_ = nn.Score(net, feats[i%n])
	}
	runtime.ReadMemStats(&m1)
	r.set("nn.alloc_b_per_score", float64(m1.TotalAlloc-m0.TotalAlloc)/32)

	layers := tr.byLayer()
	meanUS := func(name string) float64 { return us(layers[name].meanSelf()) }
	for _, name := range []string{"layout.clipat", "layout.fingerprint", "layout.read",
		"raster.rasterize", "nn.score", "core.score", "tensor.matmul",
		"scanfarm.cache_get", "scanfarm.cache_put", "scanfarm.journal_append", "datengine.wal_append"} {
		r.set(name+"_us", meanUS(name))
	}
	r.set("fft.dct2d_block_us", meanUS("fft.dct2d_block"))
	r.set("features.dct_us", meanUS("features.extract")-meanUS("raster.rasterize"))
	r.set("nn.batch64_us_per_clip", meanUS("nn.batch64")/64)
	r.set("core.scorebatch_us_per_clip", meanUS("core.scorebatch")/64)
	r.set("lithosim.simulate_ms", meanUS("lithosim.simulate")/1000)
	r.set("nn.fit_s", e.fit.Seconds())
	r.set("iccad.suite_gen_s", e.suiteGen.Seconds())

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("go.gc_cpu_frac", ms.GCCPUFraction)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.set("go.peak_rss_mb", float64(ru.Maxrss)/1024) // Linux reports KiB
	}
	r.layers = layers
	return nil
}
