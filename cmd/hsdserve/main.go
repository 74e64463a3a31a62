// Command hsdserve trains a zoo detector on a benchmark suite and serves
// it over HTTP: physical-verification flows POST layout clips (GLT
// format) to /score and get JSON hotspot verdicts; /verify runs the full
// lithography oracle on demand.
//
// Usage:
//
//	hsdserve -suite suite.gob -bench B1 -detector CNN -fallback AdaBoost \
//	         -deadline 500ms -shed-rate 200 -addr :8080
//
//	curl -s --data-binary @clip.glt localhost:8080/score
//	curl -s --data-binary @clip.glt localhost:8080/batch
//	curl -s --data-binary @clip.glt localhost:8080/verify
//	curl -s localhost:8080/readyz
//
// Serving is a graceful-degradation cascade. The -detector (primary,
// typically deep) model is guarded by a per-request -deadline budget and
// a circuit breaker; when it overruns the deadline, errors, panics, or
// the breaker is open, the -fallback (typically shallow) detector
// answers instead and the JSON response carries "degraded": true plus a
// "degradedReason" ("deadline", "error", "panic", "breaker-open").
// Clients that care about verdict provenance must check that field; the
// HTTP status stays 200. Without a fallback those failures surface as
// 5xx. When -shed-rate is set, excess traffic is rejected up front with
// 429 + Retry-After. POST /batch is /score with micro-batching:
// concurrent requests are coalesced (up to -batch-size per pass, waiting
// at most -batch-wait) into one vectorized pass through the primary;
// verdicts are identical to /score. GET /readyz reports readiness: "ready" (primary
// healthy), "degraded" (breaker open, fallback answering, still 200), or
// "unavailable" (breaker open, no fallback, 503). GET /metrics exposes
// hotspot_fallbacks_total, requests_shed_total, the breaker state
// gauge (hotspot_breaker_state: 0 closed, 1 half-open, 2 open), Go
// runtime stats, and the per-stage hotspot_stage_seconds histograms.
//
// Every request is traced end to end (raster -> features -> inference,
// plus per-corner simulation spans on /verify); the tail sampler always
// keeps slow, errored, degraded, and shed traces and samples the rest
// at -trace-sample. GET /debug/traces lists retained traces as JSON
// (?id= for one, ?limit=N); GET /debug/traces/chrome exports them in
// Chrome trace_event format for about:tracing or ui.perfetto.dev. With
// -debug-addr a second, private listener additionally serves
// /debug/pprof/ — keep it off the public interface.
//
// Hot model reload (neural primaries): -model-watch polls a saved
// network file (written by hsdtrain -save) and reloads it whenever it
// changes; POST /admin/reload triggers the same on demand. Every
// candidate passes a validation gate first — it is scored on a golden
// set held out from the benchmark's test split, and swapped in only if
// its hotspot recall and false-alarm rate stay within -max-recall-drop
// / -max-far-rise of the live model and every score is finite. After a
// swap the next -probation primary outcomes are watched: more than
// -probation-max-failures failures rolls back to the previous
// generation automatically. GET /admin/model reports the live
// generation; POST /admin/rollback restores the previous one. The
// hotspot_model_generation gauge and hotspot_reloads_total{outcome}
// counters expose every decision on /metrics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
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
	"github.com/golitho/hsd/internal/lithosim"
	"github.com/golitho/hsd/internal/qualitymon"
	"github.com/golitho/hsd/internal/registry"
	"github.com/golitho/hsd/internal/router"
	"github.com/golitho/hsd/internal/serve"
	"github.com/golitho/hsd/internal/telemetry"
	"github.com/golitho/hsd/internal/tensor"
	"github.com/golitho/hsd/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hsdserve:", err)
		os.Exit(1)
	}
}

func run() error {
	suitePath := flag.String("suite", "suite.gob", "suite gob file for training")
	benchName := flag.String("bench", "", "training benchmark (default: first)")
	detName := flag.String("detector", "AdaBoost", "zoo detector name (primary)")
	fallbackName := flag.String("fallback", "", "zoo detector serving degraded verdicts when the primary fails (empty: no fallback)")
	deadline := flag.Duration("deadline", 0, "per-request compute budget for /score and /verify (0: unlimited)")
	shedRate := flag.Float64("shed-rate", 0, "admission-control rate in requests/sec; excess gets 429 (0: no shedding)")
	batchSize := flag.Int("batch-size", 32, "max POST /batch requests coalesced into one scoring pass")
	batchWait := flag.Duration("batch-wait", 2*time.Millisecond, "max time a /batch request waits for the batch to fill")
	seed := flag.Int64("seed", 1, "training seed")
	addr := flag.String("addr", ":8080", "listen address")
	debugAddr := flag.String("debug-addr", "", "private listen address for /debug/pprof/ and the trace endpoints (empty: no debug listener)")
	traceSample := flag.Float64("trace-sample", 1, "fraction of unflagged traces the tail sampler retains; slow/errored/degraded/shed traces are always kept")
	traceCapacity := flag.Int("trace-capacity", 256, "finished traces retained for /debug/traces (oldest evicted)")
	traceSlow := flag.Duration("trace-slow", 0, "flag traces at least this slow so the sampler always keeps them (0: off)")
	modelWatch := flag.String("model-watch", "", "saved network file to poll for hot reload (neural primaries only)")
	watchInterval := flag.Duration("model-watch-interval", 5*time.Second, "poll interval for -model-watch")
	goldenN := flag.Int("golden", 64, "golden validation clips held out of the test split for the reload gate")
	maxRecallDrop := flag.Float64("max-recall-drop", 0.05, "max golden-set recall a reload candidate may lose vs. the live model")
	maxFARRise := flag.Float64("max-far-rise", 0.05, "max golden-set false-alarm rate a reload candidate may add")
	probation := flag.Int("probation", 200, "post-swap primary outcomes watched for automatic rollback (0: off)")
	probationMaxFail := flag.Int("probation-max-failures", 5, "primary failures tolerated inside the probation window")
	kernelWorkers := flag.Int("kernel-workers", 0, "total kernel-pool parallelism for batched inference and matmuls (0: GOMAXPROCS)")
	var routerFlags cli.RouterFlags
	routerFlags.Register(flag.CommandLine)
	readTimeout := flag.Duration("read-timeout", 15*time.Second, "max time to read a request")
	writeTimeout := flag.Duration("write-timeout", 60*time.Second, "max time to write a response (covers /verify simulation)")
	idleTimeout := flag.Duration("idle-timeout", 120*time.Second, "keep-alive idle connection timeout")
	shutdownGrace := flag.Duration("shutdown-grace", 10*time.Second, "graceful shutdown deadline after SIGINT/SIGTERM")
	quality := flag.Bool("quality", false, "enable model-quality monitoring (score sketches, drift, SLO burn rate, GET /debug/quality); implied by the other -quality-*/-spot-check/-slo flags")
	qualityBaseline := flag.String("quality-baseline", "", "training-time score-distribution baseline (written by hsdtrain -quality-baseline) for drift scoring")
	spotCheckRate := flag.Float64("spot-check-rate", 0, "fraction of scored clips re-checked against the lithography oracle in the background (content-keyed, deterministic)")
	sloTarget := flag.Float64("slo-target", 0.99, "served-without-primary-failure SLO objective for burn-rate alerting")
	driftThreshold := flag.Float64("drift-threshold", 0.25, "PSI above which a series is drifting (pages the alert; warning at half)")
	qualityWindow := flag.Duration("quality-window", 10*time.Second, "quality-monitor sub-window; fast alert window is 3 of these, slow is 18")
	learnWAL := flag.String("learn-wal", "", "active-learning candidate WAL (see hsdlearn): low-confidence scores, spot-check misses, and router escalations are mined into it; use the same -detector name when draining it with hsdlearn")
	learnMargin := flag.Float64("learn-margin", 0.1, "with -learn-wal: mine scores within this of the threshold as low-confidence candidates")
	version := flag.Bool("version", false, "print build info (the hotspot_build_info fields) and exit")
	flag.Parse()

	if *version {
		fmt.Println(cli.Version("hsdserve"))
		return nil
	}

	if *kernelWorkers > 0 {
		tensor.SetDefaultWorkers(*kernelWorkers)
	}

	suite, bench, err := cli.LoadBenchmark(*suitePath, *benchName)
	if err != nil {
		return err
	}
	// Looked up before anything is opened: a mistyped -detector must not
	// leave a -learn-wal keyed to it behind.
	spec, err := cli.Spec(*seed, *detName)
	if err != nil {
		return err
	}

	// Everything below is built top to bottom, each value handed to what
	// follows in its config and never bound afterwards: one registry
	// behind GET /metrics, the tracer that times spans into it, the
	// oracle, the data engine, the quality monitor, the detectors, and
	// last the server.
	reg := telemetry.NewRegistry()
	tracer := trace.New(trace.Config{
		Capacity:      *traceCapacity,
		SampleRate:    *traceSample,
		SlowThreshold: *traceSlow,
		Metrics:       reg,
	})
	sim, err := lithosim.New(lithosim.DefaultConfig())
	if err != nil {
		return err
	}

	// Active-learning mining: with -learn-wal, uncertain and
	// wrongly-answered clips flow into the data engine's candidate WAL
	// for hsdlearn to drain. Ingest-only: labeling, retraining, and
	// shipping happen in hsdlearn against the same WAL. The -detector
	// name keys the WAL meta, so mixing detectors across processes fails
	// loudly (and before any training) instead of polluting the queue.
	var eng *datengine.Engine
	if *learnWAL != "" {
		eng, err = datengine.Open(*learnWAL, datengine.Config{
			Detector: *detName,
			Metrics:  reg,
			Logf:     log.Printf,
		})
		if err != nil {
			return fmt.Errorf("-learn-wal: %w", err)
		}
		defer eng.Close()
		log.Printf("mining active-learning candidates into %s (margin %.2f, %d pending)",
			*learnWAL, *learnMargin, eng.PendingCandidates())
	}
	// learnIngest is only reached through taps installed when eng is set.
	learnIngest := func(clip layout.Clip, score float64, stage, source string) {
		if _, err := eng.Ingest(clip, score, stage, source); err != nil {
			log.Printf("learn-wal ingest: %v", err)
		}
	}

	// Model-quality monitoring: score sketches + drift vs. the training
	// baseline, oracle spot-checks, SLO burn rate, /debug/quality.
	var qm *qualitymon.Monitor
	if *quality || *qualityBaseline != "" || *spotCheckRate > 0 || eng != nil {
		qopts := qualitymon.Options{
			SubWindow:      *qualityWindow,
			DriftThreshold: *driftThreshold,
			SLOTarget:      *sloTarget,
			SpotCheckRate:  *spotCheckRate,
			Oracle:         sim.Label,
			Metrics:        reg,
			Tracer:         tracer,
			Logf:           log.Printf,
		}
		if eng != nil {
			qopts.LowConfMargin = *learnMargin
			qopts.LowConfidenceTap = func(fp layout.Fingerprint, clip layout.Clip, score float64, stage string) {
				learnIngest(clip, score, stage, "lowconf")
			}
			qopts.SpotMissTap = func(clip layout.Clip, predicted, actual bool) {
				score := 0.0
				if predicted {
					score = 1.0
				}
				learnIngest(clip, score, "spotcheck", "spotmiss")
			}
		}
		qm = qualitymon.New(qopts)
		defer qm.Close()
		if *qualityBaseline != "" {
			b, err := qualitymon.LoadBaselineFile(*qualityBaseline)
			if err != nil {
				return fmt.Errorf("-quality-baseline: %w", err)
			}
			qm.InstallBaseline(b)
			log.Printf("quality baseline installed from %s (%d series)", *qualityBaseline, len(b.Entries))
		}
	}

	train := func(spec hsd.DetectorSpec, configure func(core.Detector) error) (core.Detector, error) {
		det, took, err := cli.Train(spec, bench, configure)
		if err != nil {
			return nil, err
		}
		log.Printf("trained %s on %s in %v", det.Name(), bench.Name, took.Round(time.Millisecond))
		return det, nil
	}
	det, err := train(spec, func(det core.Detector) error {
		if rt, ok := det.(*hsd.RouterDetector); ok {
			// Per-stage routing counters land on the same /metrics page
			// as the serving cascade's. Every answered decision feeds the
			// monitor's per-stage sketch (the calibrated confidence, so
			// drift is visible per cascade stage, not just on the encoded
			// score), and the escalation band, clips every cheap stage
			// refused to answer, is the router's feed into the data engine.
			final := len(rt.Stages()) - 1
			rt.SetHooks(router.Hooks{Metrics: reg, OnDecision: func(d hsd.RouterDecision, clip layout.Clip) {
				qm.Observe(qualitymon.Event{
					Detector: rt.Name(), Stage: d.StageName,
					Score: d.Confidence, Threshold: 0.5,
					Clip: clip, HasClip: true,
				})
				if eng != nil && d.Stage == final {
					learnIngest(clip, d.Confidence, d.StageName, "escalation")
				}
			}})
		}
		return routerFlags.Apply(det)
	})
	if err != nil {
		return err
	}
	var fallback core.Detector
	if *fallbackName != "" {
		if strings.EqualFold(*fallbackName, *detName) {
			return fmt.Errorf("fallback %q is the primary detector; pick a different (shallower) one", *fallbackName)
		}
		fbSpec, err := cli.Spec(*seed, *fallbackName)
		if err == nil {
			fallback, err = train(fbSpec, nil)
		}
		if err != nil {
			return fmt.Errorf("fallback: %w", err)
		}
	}

	// Hot reload: a neural primary can be swapped for a new network saved
	// by hsdtrain. The registry gates each candidate on a golden subset
	// of the benchmark's test split before it may serve.
	var reload *serve.ReloadOptions
	if nd, ok := det.(*hsd.NeuralDetector); ok {
		reload = &serve.ReloadOptions{
			Config: registry.Config{
				Loader:               cli.NetworkLoader(nd),
				Golden:               cli.GoldenSet(bench, *goldenN),
				MaxRecallDrop:        *maxRecallDrop,
				MaxFalseAlarmRise:    *maxFARRise,
				ProbationRequests:    *probation,
				ProbationMaxFailures: *probationMaxFail,
				Logf:                 log.Printf,
			},
			DefaultPath: *modelWatch,
		}
	}
	if *modelWatch != "" && reload == nil {
		return fmt.Errorf("-model-watch needs a neural primary; %s cannot hot-reload", det.Name())
	}

	srv, err := serve.NewServer(serve.Options{
		Primary:        det,
		Fallback:       fallback,
		Sim:            sim,
		ClipNM:         suite.Config.ClipNM,
		CoreFrac:       suite.Config.CoreFrac,
		DeadlineBudget: *deadline,
		ShedRate:       *shedRate,
		BatchMaxSize:   *batchSize,
		BatchMaxWait:   *batchWait,
		Metrics:        reg,
		Tracer:         tracer,
		Reload:         reload,
		Quality:        qm,
	})
	if err != nil {
		return err
	}
	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
		MaxHeaderBytes:    1 << 20,
	}

	// The debug listener is private: pprof endpoints can stall the
	// process, so they never share the serving mux.
	var debugServer *http.Server
	if *debugAddr != "" {
		debugServer = &http.Server{
			Addr:              *debugAddr,
			Handler:           srv.DebugMux(),
			ReadHeaderTimeout: 5 * time.Second,
		}
	}

	// Serve until SIGINT/SIGTERM, then drain in-flight requests.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *modelWatch != "" {
		// model.reload spans from watcher-triggered reloads land in the
		// same trace store as request traces.
		wctx := trace.WithTracer(ctx, tracer)
		log.Printf("watching %s for model reloads every %v", *modelWatch, *watchInterval)
		go srv.Registry().Watch(wctx, *modelWatch, *watchInterval)
	}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("serving hotspot detection on %s (POST /score, POST /verify, GET /readyz, GET /metrics, GET /debug/traces)", *addr)
		errCh <- httpServer.ListenAndServe()
	}()
	if debugServer != nil {
		go func() {
			log.Printf("debug listener on %s (/debug/pprof/, /debug/traces)", *debugAddr)
			if err := debugServer.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug listener: %v", err)
			}
		}()
	}
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills immediately
	log.Printf("shutting down (grace %v)", *shutdownGrace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
	defer cancel()
	if debugServer != nil {
		_ = debugServer.Shutdown(shutdownCtx)
	}
	if err := httpServer.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
