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
// a circuit breaker that opens when 5 of the model's last 10 primary
// outcomes failed; when it overruns the deadline, errors, panics, or
// the breaker is open, the -fallback (typically shallow) detector
// answers instead and the JSON response carries "degraded": true plus a
// "degradedReason" ("deadline", "error", "panic", "breaker-open").
// Clients that care about verdict provenance must check that field; the
// HTTP status stays 200. Without a fallback those failures surface as
// 5xx. When -shed-rate is set, excess traffic is rejected up front with
// 429 + Retry-After. POST /batch is /score, kept for existing clients;
// its requests are counted under their own endpoint label. GET /readyz
// reports readiness: "ready" (primary healthy), "degraded" (breaker
// open, fallback answering, still 200), or "unavailable" (breaker open,
// no fallback, 503). GET /metrics exposes
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
// Hot model reload (neural primaries): -model names the one file the
// server ever reloads, a network saved by hsdtrain -save. POST
// /admin/reload with an empty body loads it and answers with the gate's
// verdict, so with -model cnn.hsdnn a redeploy is
//
//	hsdtrain -suite suite.gob -detector CNN -save cnn.hsdnn &&
//	    curl -X POST localhost:8080/admin/reload
//
// A reload request that carries a body or a query (it cannot name a
// file) gets 400, as does a reload of a server started without -model.
// Every candidate passes a sanity gate first: it is scored on 64 golden
// clips, the first hotspots and non-hotspots of the benchmark's test
// split (not held out: hsdlearn mines that same split for its retrains),
// and swapped in only if every score is finite, scoring does not panic
// and its golden recall is at least half the live model's. The gate cannot
// tell a better model from a slightly worse one (EXPERIMENTS.md, "The
// ship gate against its rule"); probation watches how it serves. Each
// generation has its own outcome window, the breaker, started empty when
// it goes live. A swapped-in generation's first -probation primary
// outcomes are its probation: more than -probation-max-failures
// failures among them, or a breaker trip among them, rolls back to the
// previous generation automatically. GET /admin/model reports the live
// generation; POST /admin/rollback restores the one the last reload
// replaced, after probation too. The
// hotspot_model_generation gauge and hotspot_reloads_total{outcome}
// counters expose every decision on /metrics.
//
// Model-quality monitoring (-quality, -spot-check-rate or -learn-wal):
// the SLO's events are serve outcomes, a primary answer within
// -deadline good and a primary failure bad, and its burn rate against
// -slo-target pages and warns (hotspot_quality_alert_state, GET
// /debug/quality). A spot check rescoring a sampled clip with the
// lithography oracle feeds online recall and false-alarm rate, the
// hotspot_spot_check_mismatches_total counter and, with -learn-wal, the
// mined candidates; a mismatch never pages. A reload or rollback
// restarts the monitor's windows.
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
	suitePath := flag.String("suite", "suite.gob", "suite file for training")
	benchName := flag.String("bench", "", "training benchmark (default: first)")
	detName := flag.String("detector", "AdaBoost", "zoo detector name (primary)")
	fallbackName := flag.String("fallback", "", "zoo detector serving degraded verdicts when the primary fails (empty: no fallback)")
	deadline := flag.Duration("deadline", 0, "per-request compute budget for /score and /verify (0: unlimited)")
	shedRate := flag.Float64("shed-rate", 0, "admission-control rate in requests/sec; excess gets 429 (0: no shedding)")
	seed := flag.Int64("seed", 1, "training seed")
	addr := flag.String("addr", ":8080", "listen address")
	debugAddr := flag.String("debug-addr", "", "private listen address for /debug/pprof/ (empty: no debug listener)")
	traceSample := flag.Float64("trace-sample", 1, "fraction of unflagged traces the tail sampler retains; slow/errored/degraded/shed traces are always kept")
	traceCapacity := flag.Int("trace-capacity", 256, "finished traces retained for /debug/traces (oldest evicted)")
	traceSlow := flag.Duration("trace-slow", 0, "flag traces at least this slow so the sampler always keeps them (0: off)")
	modelPath := flag.String("model", "", "saved network file POST /admin/reload loads, the one file ever reloaded (neural primaries only)")
	probation := flag.Int("probation", 200, "a swapped-in model's first primary outcomes, judged for automatic rollback (0: off)")
	probationMaxFail := flag.Int("probation-max-failures", 5, "primary failures tolerated among them; one more, or a breaker trip among them, rolls back")
	kernelWorkers := flag.Int("kernel-workers", 0, "total kernel-pool parallelism for training and matmuls (0: GOMAXPROCS)")
	readTimeout := flag.Duration("read-timeout", 15*time.Second, "max time to read a request")
	writeTimeout := flag.Duration("write-timeout", 60*time.Second, "max time to write a response (covers /verify simulation)")
	idleTimeout := flag.Duration("idle-timeout", 120*time.Second, "keep-alive idle connection timeout")
	shutdownGrace := flag.Duration("shutdown-grace", 10*time.Second, "graceful shutdown deadline after SIGINT/SIGTERM")
	quality := flag.Bool("quality", false, "enable model-quality monitoring (GET /debug/quality): an SLO burn-rate alert over serve outcomes, and oracle spot checks that feed online recall, the mismatch counter and -learn-wal but never the alert; also on with -spot-check-rate > 0 or -learn-wal")
	spotCheckRate := flag.Float64("spot-check-rate", 0, "fraction of scored clips re-checked against the lithography oracle in the background (content-keyed, deterministic)")
	sloTarget := flag.Float64("slo-target", 0.99, "served-without-primary-failure SLO objective for burn-rate alerting")
	qualityWindow := flag.Duration("quality-window", 10*time.Second, "quality-monitor sub-window; fast alert window is 3 of these, slow is 18")
	learnWAL := flag.String("learn-wal", "", "active-learning candidate WAL (see hsdlearn): low-confidence scores and spot-check misses are mined into it, keyed by the zoo name of -detector; drain it with hsdlearn -detector naming the same zoo row")
	learnMargin := flag.Float64("learn-margin", 0.1, "with -learn-wal: mine scores within this of the threshold as low-confidence candidates")
	version := flag.Bool("version", false, "print build info (the hotspot_build_info fields) and exit")
	flag.Parse()

	if *version {
		fmt.Println(cli.Version("hsdserve"))
		return nil
	}
	// Refused before the suite is read or anything is trained.
	if err := checkQualityFlags(*sloTarget, *spotCheckRate, *qualityWindow); err != nil {
		return err
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
	// shipping happen in hsdlearn against the same WAL. The zoo's name
	// for -detector keys the WAL meta, as hsdlearn's does, so however
	// the flag is cased the two programs agree, and mixing detectors
	// across processes fails loudly (and before any training) instead
	// of polluting the queue.
	var eng *datengine.Engine
	if *learnWAL != "" {
		eng, err = datengine.Open(*learnWAL, datengine.Config{
			Detector: spec.Name,
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

	// Model-quality monitoring: oracle spot-checks, SLO burn rate,
	// /debug/quality.
	var qm *qualitymon.Monitor
	if *quality || *spotCheckRate > 0 || eng != nil {
		qopts := qualitymon.Options{
			SubWindow:     *qualityWindow,
			SLOTarget:     *sloTarget,
			SpotCheckRate: *spotCheckRate,
			Oracle:        sim.LabelCtx,
			Metrics:       reg,
			Logf:          log.Printf,
		}
		if eng != nil {
			qopts.LowConfMargin = *learnMargin
			qopts.LowConfidenceTap = func(clip layout.Clip, score float64, stage string) {
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
	}

	train := func(spec hsd.DetectorSpec) (core.Detector, error) {
		det, took, err := cli.Train(spec, bench, nil)
		if err != nil {
			return nil, err
		}
		log.Printf("trained %s on %s in %v", det.Name(), bench.Name, took.Round(time.Millisecond))
		return det, nil
	}
	det, err := train(spec)
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
			fallback, err = train(fbSpec)
		}
		if err != nil {
			return fmt.Errorf("fallback: %w", err)
		}
	}

	// Hot reload: a neural primary can be swapped for the network saved
	// at -model. The registry gates each candidate on the first 64 clips
	// of the benchmark's test split before it may serve.
	var reload *serve.ReloadOptions
	if nd, ok := det.(*hsd.NeuralDetector); ok {
		reload = &serve.ReloadOptions{
			Config: registry.Config{
				Loader: cli.NetworkLoader(nd),
				Golden: cli.GoldenSet(bench),
				Logf:   log.Printf,
			},
			Path:                 *modelPath,
			ProbationRequests:    *probation,
			ProbationMaxFailures: *probationMaxFail,
		}
	}
	if *modelPath != "" && reload == nil {
		return fmt.Errorf("-model needs a neural primary; %s cannot hot-reload", det.Name())
	}

	srv, err := serve.NewServer(serve.Options{
		Primary:        det,
		Fallback:       fallback,
		Sim:            sim,
		ClipNM:         suite.Config.ClipNM,
		CoreFrac:       suite.Config.CoreFrac,
		DeadlineBudget: *deadline,
		ShedRate:       *shedRate,
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
	errCh := make(chan error, 1)
	go func() {
		log.Printf("serving hotspot detection on %s (POST /score, POST /verify, GET /readyz, GET /metrics, GET /debug/traces)", *addr)
		errCh <- httpServer.ListenAndServe()
	}()
	if debugServer != nil {
		go func() {
			log.Printf("debug listener on %s (/debug/pprof/)", *debugAddr)
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

// checkQualityFlags refuses the quality-monitor settings that the
// monitor would otherwise bend without a word: an -slo-target outside
// (0, 1) turns alerting off, a -spot-check-rate outside [0, 1] is
// clamped, and a -quality-window <= 0 becomes 10 s.
func checkQualityFlags(sloTarget, spotCheckRate float64, qualityWindow time.Duration) error {
	switch {
	case !(sloTarget > 0 && sloTarget < 1):
		return fmt.Errorf("-slo-target %v: want a value in (0, 1)", sloTarget)
	case !(spotCheckRate >= 0 && spotCheckRate <= 1):
		return fmt.Errorf("-spot-check-rate %v: want a value in [0, 1]", spotCheckRate)
	case qualityWindow <= 0:
		return fmt.Errorf("-quality-window %v: want a positive duration", qualityWindow)
	}
	return nil
}
