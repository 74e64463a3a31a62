package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	hsd "github.com/golitho/hsd"
	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/datengine"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/nn"
	"github.com/golitho/hsd/internal/registry"
)

const (
	learnBatch  = 8  // hsdlearn's default -batch
	learnGolden = 40 // golden clips the ship gate scores both models on
)

// learnWorkload is cmd/hsdlearn's wiring around datengine.Open: base
// CNN-biased, lithosim oracle, retrain from scratch on base + labelled
// batch, ship through the registry's golden-set gate. It is the only
// workload with training, the oracle and a per-record-fsync WAL on the
// blocking path.
type learnWorkload struct {
	seed int64
	env  *env
	eng  *datengine.Engine
	reg  *registry.Registry

	// tr and cycle, when tr is on, put a span around each closure call.
	tr    *tracer
	cycle int // current cycle's root span
	op    int

	mineWall time.Duration
	ingested int
}

func (w *learnWorkload) setup() error {
	e, err := newEnv(w.seed)
	if err != nil {
		return err
	}
	w.env = e
	w.tr = &tracer{}
	sim, err := hsd.NewSimulator(hsd.DefaultSimConfig())
	if err != nil {
		return err
	}
	// The gate scores both models on the golden set as hsdserve's would,
	// but with tolerances of 1 it cannot reject: a rejected cycle is a
	// healthy outcome for the program and a failed operation here, and
	// workloads must not have failing operations.
	w.reg = registry.New(e.cnn, registry.Config{
		Golden:            goldenSet(e.test, learnGolden),
		MaxRecallDrop:     1,
		MaxFalseAlarmRise: 1,
		Loader: func(path string) (core.Detector, error) {
			net, err := nn.LoadFile(path)
			if err != nil {
				return nil, err
			}
			return e.cnn.WithNetwork(net)
		},
	})
	w.eng, err = datengine.Open(filepath.Join(e.dir, "learn.wal"), datengine.Config{
		Detector:  e.spec.Name,
		BatchSize: learnBatch,
		Oracle: func(ctx context.Context, clip layout.Clip) (bool, error) {
			sp := w.tr.begin("lithosim.label", w.cycle, w.op)
			defer w.tr.end(sp)
			return sim.LabelCtx(ctx, clip)
		},
		Train: func(ctx context.Context, batchID int, labeled []core.LabeledClip) (string, error) {
			sp := w.tr.begin("nn.fit", w.cycle, w.op)
			cand := e.spec.New().(*hsd.NeuralDetector)
			train := append(append([]core.LabeledClip(nil), e.baseTrain...), labeled...)
			err := cand.Fit(hsd.AugmentMinority(train, e.spec.Augment))
			w.tr.end(sp)
			if err != nil {
				return "", err
			}
			sp = w.tr.begin("nn.save", w.cycle, w.op)
			defer w.tr.end(sp)
			path := filepath.Join(e.dir, fmt.Sprintf("model-%03d.gob", batchID))
			return path, hsd.SaveNetworkFile(path, cand)
		},
		Ship: func(ctx context.Context, batchID int, modelPath string) error {
			sp := w.tr.begin("registry.reload", w.cycle, w.op)
			defer w.tr.end(sp)
			_, verdict, err := w.reg.Reload(ctx, modelPath)
			if errors.Is(err, registry.ErrRejected) {
				return fmt.Errorf("%w: %s", datengine.ErrShipRejected, verdict.Reason)
			}
			return err
		},
	})
	if err != nil {
		return err
	}
	// Mining: every test clip of both benchmarks is scored and ingested
	// (fingerprint, WAL append, fsync), so no run is short of candidates.
	t0 := time.Now()
	for _, lc := range e.test {
		score, err := core.ScoreClipCtx(context.Background(), e.cnn, lc.Clip)
		if err != nil {
			return fmt.Errorf("mining: %w", err)
		}
		fresh, err := w.eng.Ingest(lc.Clip, score, "base", "lowconf")
		if err != nil {
			return fmt.Errorf("mining: %w", err)
		}
		if fresh {
			w.ingested++
		}
	}
	w.mineWall = time.Since(t0)
	return nil
}

func (w *learnWorkload) close() {
	if w.eng != nil {
		w.eng.Close()
	}
	w.env.close()
}

// goldenSet interleaves hotspots and non-hotspots so both of the gate's
// rates are measurable, as hsdlearn does.
func goldenSet(test []hsd.LabeledClip, n int) []hsd.LabeledClip {
	var hot, cold []hsd.LabeledClip
	for _, lc := range test {
		if lc.Hotspot {
			hot = append(hot, lc)
		} else {
			cold = append(cold, lc)
		}
	}
	out := make([]hsd.LabeledClip, 0, n)
	for i := 0; len(out) < n && (i < len(hot) || i < len(cold)); i++ {
		if i < len(hot) {
			out = append(out, hot[i])
		}
		if len(out) < n && i < len(cold) {
			out = append(out, cold[i])
		}
	}
	return out
}

// cycles runs RunCycle until d has elapsed (at least once) and returns
// each cycle's wall in seconds. A cycle that errors, does not ship, or
// ships a file nn.LoadFile refuses is a failed operation.
func (w *learnWorkload) cycles(d time.Duration, r *result) ([]float64, time.Duration, error) {
	var walls []float64
	var models []string
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < d {
		w.op++
		w.cycle = w.tr.begin("cycle", -1, w.op)
		t0 := time.Now()
		rep, err := w.eng.RunCycle(context.Background())
		wall := time.Since(t0)
		w.tr.end(w.cycle)
		if errors.Is(err, datengine.ErrNoCandidates) {
			if len(walls) == 0 {
				return nil, 0, err
			}
			break
		}
		walls = append(walls, wall.Seconds())
		r.attempted++
		switch {
		case err != nil:
			r.failed++
			r.note("cycle %d: %v", w.op, err)
		case rep.Outcome != datengine.OutcomeShipped:
			r.failed++
			r.note("cycle %d: batch %d %s (%s)", w.op, rep.BatchID, rep.Outcome, rep.Reason)
		default:
			models = append(models, rep.ModelPath)
		}
	}
	total := time.Since(start)
	for _, path := range models {
		if _, err := nn.LoadFile(path); err != nil {
			r.failed++
			r.note("shipped model %s does not load: %v", path, err)
		}
	}
	return walls, total, nil
}

func (w *learnWorkload) measure(d time.Duration, r *result) error {
	walls, total, err := w.cycles(d, r)
	if err != nil {
		return err
	}
	r.set("throughput_per_s", float64(r.attempted-r.failed)/total.Seconds())
	r.set("latency_p50_ms", 1000*median(walls))
	r.note("%d cycles of batch %d over %d mined candidates", len(walls), learnBatch, w.ingested)
	return nil
}

func (w *learnWorkload) traced(d time.Duration, r *result, tr *tracer) error {
	// One untraced cycle, then traced cycles for the rest of the time:
	// a cycle is seconds of training, far too long to replay both ways.
	untraced, _, err := w.cycles(0, r)
	if err != nil {
		return err
	}
	w.tr = tr
	traced, _, err := w.cycles(d-time.Duration(untraced[0]*float64(time.Second)), r)
	if err != nil {
		return err
	}
	layers := tr.byLayer()
	cycleS := layers["cycle"].meanTotal().Seconds()
	n := float64(layers["cycle"].n)
	retrain := (layers["nn.fit"].total + layers["nn.save"].total).Seconds() / n
	r.set("datengine.label_ms", ms(layers["lithosim.label"].total)/n)
	r.set("datengine.retrain_s", retrain)
	r.set("registry.reload_ms", ms(layers["registry.reload"].total)/n)
	r.set("datengine.select_ms", ms(layers["cycle"].self)/n)
	r.set("datengine.retrain_frac", retrain/cycleS)
	r.set("datengine.mine_ms", ms(w.mineWall))
	r.set("trace.overhead_frac", mean(traced)/untraced[0]-1)
	r.set("trace.coverage_frac", mean(traced)/untraced[0])
	r.note("cycle: untraced %.3f s, traced mean %.3f s over %d; mining %d clips took %.1f ms",
		untraced[0], mean(traced), len(traced), len(w.env.test), ms(w.mineWall))

	// datengine.ingest on a scratch engine, so the measured WAL is not
	// the one the cycles above replayed from.
	scratch, err := datengine.Open(filepath.Join(w.env.dir, "ingest.wal"), datengine.Config{Detector: w.env.spec.Name})
	if err != nil {
		return err
	}
	defer scratch.Close()
	clips := make([]layout.Clip, 0, 64)
	for _, lc := range w.env.test {
		if len(clips) == 64 {
			break
		}
		sp := tr.begin("datengine.ingest", -1, -1)
		_, err := scratch.Ingest(lc.Clip, 0.5, "base", "lowconf")
		tr.end(sp)
		if err != nil {
			return err
		}
		clips = append(clips, lc.Clip)
	}
	if err := measureLayers(tr, r, w.env, clips); err != nil {
		return err
	}
	r.set("datengine.ingest_us", us(r.layers["datengine.ingest"].meanSelf()))
	return nil
}
