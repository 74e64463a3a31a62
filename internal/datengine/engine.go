// The active-learning engine: mine → select → label → retrain → ship,
// every stage journaled before the next may run (at-least-once,
// idempotent). The engine owns the WAL and the replayed State; callers
// plug in the mining taps (Ingest), the labeling oracle, the trainer,
// and the shipping gate.
//
// Crash tolerance: any stage may die at any instant (kill -9 included).
// The WAL fsyncs each record, so on resume the replayed State tells the
// engine exactly which work is durable; the select stage is a pure
// function of the candidate set, labeling skips journaled members, and
// retraining is required to be deterministic over (batch ID, labeled
// set in selection order) — so an interrupted loop, resumed, ships a
// byte-identical model to an uninterrupted one.
//
// Oracle containment is the scan farm's worker discipline, the same
// function (resilience.Supervise): a shared circuit breaker pauses
// labeling when the oracle looks sick, each sample retries with backoff
// seeded from its own fingerprint under a per-attempt deadline budget,
// and a sample that exhausts its attempts — oracle error, panic, or
// timeout — is quarantined, not fatal.

package datengine

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/faultinject"
	"github.com/golitho/hsd/internal/features"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/resilience"
	"github.com/golitho/hsd/internal/telemetry"
	"github.com/golitho/hsd/internal/trace"
)

// Fault-injection sites for chaos tests: each fires at the start of its
// stage (LabelSite before every sample), and an armed error aborts the
// cycle exactly as a crash at that point would — the canonical way to
// script "die mid-batch" without a process kill.
const (
	SelectSite  = "datengine.select"
	LabelSite   = "datengine.label"
	RetrainSite = "datengine.retrain"
	ShipSite    = "datengine.ship"
)

// ErrNoCandidates is returned by RunCycle when no unconsumed candidate
// is queued.
var ErrNoCandidates = errors.New("datengine: not enough candidates for a batch")

// ErrShipRejected is the sentinel a Ship func returns (wrapped) when
// the candidate model was refused by the validation gate. A rejection
// is a terminal batch outcome — journaled, loop continues — unlike any
// other ship error, which aborts the cycle for a later resume.
var ErrShipRejected = errors.New("datengine: candidate model rejected")

// Config wires an Engine. Oracle, Train, and Ship are required for
// RunCycle; an ingest-only engine (a serving process mining candidates)
// may leave them nil.
type Config struct {
	// Detector binds the WAL to one detector identity (Meta).
	Detector string

	// BatchSize is the k of the k-center selection (default 8).
	BatchSize int

	// Oracle labels one clip (ground truth, e.g. lithosim.LabelCtx).
	// Panics are recovered into errors and count as attempt failures.
	Oracle func(ctx context.Context, clip layout.Clip) (bool, error)
	// OracleDeadline budgets each oracle attempt (default 2s).
	OracleDeadline time.Duration
	// OracleAttempts is the per-sample attempt budget before quarantine
	// (default 3).
	OracleAttempts int
	// OracleRetry tunes the backoff between attempts; its Seed is
	// decorrelated per sample by the sample's fingerprint, and
	// MaxAttempts is overridden by OracleAttempts.
	OracleRetry resilience.RetryConfig
	// Breaker guards the oracle across samples.
	Breaker resilience.BreakerConfig

	// Train retrains on the labeled batch (selection order) and returns
	// the model artifact path. It MUST be deterministic over its
	// arguments: resume depends on re-running it yielding byte-identical
	// output.
	Train func(ctx context.Context, batchID int, labeled []core.LabeledClip) (string, error)
	// Ship installs the model through the validation gate. Return nil
	// to mark the batch shipped, wrap ErrShipRejected for a terminal
	// gate rejection, anything else to abort the cycle (retried on
	// resume).
	Ship func(ctx context.Context, batchID int, modelPath string) error

	// Metrics receives the learn_* series; nil disables.
	Metrics *telemetry.Registry

	Logf func(format string, args ...any) // nil = silent
}

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 8
	}
	if c.OracleDeadline <= 0 {
		c.OracleDeadline = 2 * time.Second
	}
	if c.OracleAttempts <= 0 {
		c.OracleAttempts = 3
	}
	return c
}

// learnMetrics bundles the engine's telemetry (nil handles when
// Config.Metrics is nil).
type learnMetrics struct {
	reg           *telemetry.Registry
	dedup         *telemetry.Counter
	quarantined   *telemetry.Counter
	oracleRetries *telemetry.Counter
	oracleSeconds *telemetry.Histogram
	pending       *telemetry.Gauge
}

func newLearnMetrics(reg *telemetry.Registry) *learnMetrics {
	reg.SetHelp("learn_candidates_total", "Mined candidates accepted into the queue, by mining source.")
	reg.SetHelp("learn_candidates_deduped_total", "Mined clips dropped because their fingerprint was already queued.")
	reg.SetHelp("learn_batches_total", "Batches by terminal outcome (shipped, rejected).")
	reg.SetHelp("learn_labels_total", "Oracle labels recorded, by verdict (hot, cold).")
	reg.SetHelp("learn_quarantined_total", "Batch members quarantined after exhausting oracle attempts.")
	reg.SetHelp("learn_oracle_retries_total", "Oracle attempts beyond each sample's first.")
	reg.SetHelp("learn_oracle_seconds", "Wall time of successful oracle labelings.")
	reg.SetHelp("learn_pending_candidates", "Unconsumed candidates currently queued.")
	return &learnMetrics{
		reg:           reg,
		dedup:         reg.Counter("learn_candidates_deduped_total"),
		quarantined:   reg.Counter("learn_quarantined_total"),
		oracleRetries: reg.Counter("learn_oracle_retries_total"),
		oracleSeconds: reg.Histogram("learn_oracle_seconds", nil),
		pending:       reg.Gauge("learn_pending_candidates"),
	}
}

// CycleReport summarizes one RunCycle.
type CycleReport struct {
	BatchID  int
	Selected int
	// ResumedLabels counts batch members whose label or quarantine was
	// already journaled when the cycle started.
	ResumedLabels      int
	Labeled, Hot, Cold int
	Quarantined        int
	Outcome            string // OutcomeShipped or OutcomeRejected
	ModelPath          string
	Reason             string // gate reasoning when rejected
}

// Engine is the active-learning loop head. Ingest is safe for
// concurrent use (mining taps run on scoring goroutines); RunCycle is
// single-flight by construction (one loop per WAL).
type Engine struct {
	cfg     Config
	wal     *WAL
	breaker *resilience.Breaker
	mets    *learnMetrics

	mu    sync.Mutex
	state *State
}

// Open creates or resumes the engine's WAL at path: a missing file
// starts an empty loop, an existing one is validated against the
// config's detector identity, torn-tail truncated, and replayed.
func Open(path string, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	meta := Meta{Detector: cfg.Detector}
	var (
		wal     *WAL
		records []Record
		err     error
	)
	if _, serr := os.Stat(path); serr == nil {
		wal, records, err = ResumeWAL(path, meta)
	} else {
		wal, err = CreateWAL(path, meta)
	}
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:     cfg,
		wal:     wal,
		breaker: resilience.NewBreaker(cfg.Breaker),
		mets:    newLearnMetrics(cfg.Metrics),
		state:   Replay(records),
	}
	// Pull-style like the rest of the telemetry stack: the queue depth is
	// counted when a scrape asks, not on every ingest.
	cfg.Metrics.OnCollect(func() { e.mets.pending.Set(float64(e.PendingCandidates())) })
	if t := wal.Tail(); t.Discarded > 0 {
		e.logf("datengine: WAL %s: discarded %d bytes after offset %d; the work they recorded is redone", path, t.Discarded, t.Offset)
	}
	return e, nil
}

// Close closes the WAL.
func (e *Engine) Close() error { return e.wal.Close() }

func (e *Engine) logf(format string, args ...any) {
	if e.cfg.Logf != nil {
		e.cfg.Logf(format, args...)
	}
}

// Ingest queues one mined clip. The clip is canonicalized (origin
// translated) and deduplicated by content fingerprint; the journal
// write is durable before Ingest returns true. Returns false without
// writing when the fingerprint is already queued.
func (e *Engine) Ingest(clip layout.Clip, score float64, stage, source string) (bool, error) {
	canon := clip.Translate()
	fp := canon.Fingerprint()
	e.mu.Lock()
	if _, ok := e.state.Candidates[fp]; ok {
		e.mu.Unlock()
		e.mets.dedup.Inc()
		return false, nil
	}
	// Reserve the slot before the journal write so concurrent miners of
	// the same fingerprint cannot double-append.
	cand := Candidate{FP: fp, Clip: canon, Score: score, Stage: stage, Source: source}
	e.state.Candidates[fp] = cand
	e.mu.Unlock()

	err := e.wal.Append(Record{
		Kind: RecCandidate, FP: fp, Clip: canon,
		Score: score, Stage: stage, Source: source,
	})
	if err != nil {
		e.mu.Lock()
		delete(e.state.Candidates, fp)
		e.mu.Unlock()
		return false, err
	}
	e.mets.reg.Counter("learn_candidates_total", telemetry.L("source", source)).Inc()
	return true, nil
}

// PendingCandidates reports the unconsumed queue depth.
func (e *Engine) PendingCandidates() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for fp := range e.state.Candidates {
		if _, ok := e.state.Consumed[fp]; !ok {
			n++
		}
	}
	return n
}

// Snapshot returns a copy of the replayed loop counters.
func (e *Engine) Snapshot() (candidates, consumed, shipped, rejected int, pendingBatch int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	pendingBatch = -1
	if e.state.Pending != nil {
		pendingBatch = e.state.Pending.ID
	}
	return len(e.state.Candidates), len(e.state.Consumed), e.state.Shipped, e.state.Rejected, pendingBatch
}

// RunCycle drives one batch to its terminal record: resume any pending
// batch, else select a new one; label the members not yet journaled;
// retrain on the labeled set; ship through the gate. An error return
// means the cycle aborted mid-stage (crash-equivalent) — every durable
// record stands and a later RunCycle picks up exactly where this one
// died. ErrNoCandidates means the queue is too shallow to start.
func (e *Engine) RunCycle(ctx context.Context) (*CycleReport, error) {
	if e.cfg.Oracle == nil || e.cfg.Train == nil || e.cfg.Ship == nil {
		return nil, errors.New("datengine: RunCycle needs Oracle, Train, and Ship configured")
	}
	ctx, cycleSpan := trace.Start(ctx, "learn.cycle")
	defer cycleSpan.End()

	rep := &CycleReport{}

	// ---- select -------------------------------------------------------
	e.mu.Lock()
	batch := e.state.Pending
	e.mu.Unlock()
	if batch == nil {
		var err error
		if batch, err = e.selectBatch(ctx, rep); err != nil {
			cycleSpan.SetError(err)
			return nil, err
		}
	} else {
		e.logf("datengine: resuming batch %d (%d members, %d already labeled/quarantined)",
			batch.ID, len(batch.FPs), len(batch.Labels)+len(batch.Quarantined))
	}
	rep.BatchID = batch.ID
	rep.Selected = len(batch.FPs)
	rep.ResumedLabels = len(batch.Labels) + len(batch.Quarantined)
	cycleSpan.SetAttrInt("batch", batch.ID)

	// ---- label --------------------------------------------------------
	if err := e.labelBatch(ctx, batch, rep); err != nil {
		cycleSpan.SetError(err)
		return nil, err
	}

	// ---- retrain ------------------------------------------------------
	labeled := e.labeledSet(batch)
	rep.Labeled = len(labeled)
	for _, lc := range labeled {
		if lc.Hotspot {
			rep.Hot++
		} else {
			rep.Cold++
		}
	}
	rep.Quarantined = len(batch.Quarantined)

	if len(labeled) == 0 {
		// Every member quarantined: nothing to train on. Terminal —
		// journal the rejection so the loop moves past this batch.
		return rep, e.finishBatch(batch, rep, OutcomeRejected, "", "no labeled samples (all quarantined)")
	}

	if err := faultinject.Hit(RetrainSite); err != nil {
		cycleSpan.SetError(err)
		return nil, fmt.Errorf("datengine: retrain batch %d: %w", batch.ID, err)
	}
	tctx, tspan := trace.Start(ctx, "learn.retrain")
	tspan.SetAttrInt("batch", batch.ID)
	tspan.SetAttrInt("labeled", len(labeled))
	modelPath, err := e.cfg.Train(tctx, batch.ID, labeled)
	tspan.SetError(err)
	tspan.End()
	if err != nil {
		cycleSpan.SetError(err)
		return nil, fmt.Errorf("datengine: retrain batch %d: %w", batch.ID, err)
	}
	rep.ModelPath = modelPath

	// ---- ship ---------------------------------------------------------
	if err := faultinject.Hit(ShipSite); err != nil {
		cycleSpan.SetError(err)
		return nil, fmt.Errorf("datengine: ship batch %d: %w", batch.ID, err)
	}
	sctx, sspan := trace.Start(ctx, "learn.ship")
	sspan.SetAttrInt("batch", batch.ID)
	err = e.cfg.Ship(sctx, batch.ID, modelPath)
	sspan.SetError(err)
	sspan.End()
	switch {
	case err == nil:
		return rep, e.finishBatch(batch, rep, OutcomeShipped, modelPath, "")
	case errors.Is(err, ErrShipRejected):
		return rep, e.finishBatch(batch, rep, OutcomeRejected, modelPath, err.Error())
	default:
		cycleSpan.SetError(err)
		return nil, fmt.Errorf("datengine: ship batch %d: %w", batch.ID, err)
	}
}

// selectBatch runs the deterministic k-center selection and journals
// the chosen batch. Caller has no pending batch.
func (e *Engine) selectBatch(ctx context.Context, rep *CycleReport) (*BatchState, error) {
	if err := faultinject.Hit(SelectSite); err != nil {
		return nil, fmt.Errorf("datengine: select: %w", err)
	}
	_, span := trace.Start(ctx, "learn.select")
	defer span.End()

	e.mu.Lock()
	avail := e.state.Available()
	nextID := e.state.NextBatchID
	e.mu.Unlock()
	if len(avail) == 0 {
		return nil, fmt.Errorf("%w: none queued", ErrNoCandidates)
	}

	// Embed each candidate on a coarse density grid — selection only
	// needs relative geometry, not the serving model's own features. A
	// clip the extractor rejects is excluded from this selection (it
	// stays queued and is retried next cycle — in practice extraction is
	// total over valid clips).
	embed := &features.Density{Grid: 8}
	pts := make([][]float64, 0, len(avail))
	kept := make([]Candidate, 0, len(avail))
	for _, c := range avail {
		v, err := embed.Extract(c.Clip)
		if err != nil {
			e.logf("datengine: features %s on %x: %v (excluded from selection)", embed.Name(), c.FP[:4], err)
			continue
		}
		pts = append(pts, v)
		kept = append(kept, c)
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("%w: none of %d embeddable", ErrNoCandidates, len(avail))
	}

	k := e.cfg.BatchSize
	if k > len(kept) {
		k = len(kept)
	}
	fps := make([]layout.Fingerprint, 0, k)
	for _, i := range SelectKCenter(pts, k) {
		fps = append(fps, kept[i].FP)
	}
	span.SetAttrInt("candidates", len(kept))
	span.SetAttrInt("selected", len(fps))

	if err := e.wal.Append(Record{Kind: RecBatch, BatchID: nextID, FPs: fps}); err != nil {
		return nil, err
	}
	batch := newBatchState(nextID, fps)
	e.mu.Lock()
	e.state.Pending = batch
	for _, fp := range fps {
		e.state.Consumed[fp] = nextID
	}
	e.state.NextBatchID = nextID + 1
	e.mu.Unlock()
	e.logf("datengine: batch %d selected %d of %d candidates", nextID, len(fps), len(kept))
	return batch, nil
}

// labelBatch drives every unlabeled member through the oracle. Each
// member's verdict or quarantine is journaled before the next member
// starts, so a crash loses at most one in-flight oracle call.
func (e *Engine) labelBatch(ctx context.Context, batch *BatchState, rep *CycleReport) error {
	remaining := batch.Remaining()
	if len(remaining) == 0 {
		return nil
	}
	lctx, span := trace.Start(ctx, "learn.label")
	span.SetAttrInt("batch", batch.ID)
	span.SetAttrInt("remaining", len(remaining))
	defer span.End()

	for _, fp := range remaining {
		if err := faultinject.Hit(LabelSite); err != nil {
			span.SetError(err)
			return fmt.Errorf("datengine: label batch %d: %w", batch.ID, err)
		}
		e.mu.Lock()
		cand, ok := e.state.Candidates[fp]
		e.mu.Unlock()
		if !ok {
			// A batch record always follows its candidates' records, so
			// this cannot happen on a well-formed WAL; quarantine rather
			// than wedge the loop on a hand-edited journal.
			if err := e.quarantine(batch, fp, 0, "candidate record missing"); err != nil {
				return err
			}
			continue
		}
		verdict, attempts, err := e.labelSample(lctx, cand)
		if err != nil {
			if ctx.Err() != nil {
				// The cycle itself was cancelled: crash-equivalent abort,
				// nothing journaled for this member.
				span.SetError(ctx.Err())
				return fmt.Errorf("datengine: label batch %d interrupted: %w", batch.ID, ctx.Err())
			}
			if err := e.quarantine(batch, fp, attempts, err.Error()); err != nil {
				return err
			}
			continue
		}
		if err := e.wal.Append(Record{Kind: RecLabel, BatchID: batch.ID, FP: fp, Hotspot: verdict}); err != nil {
			return err
		}
		batch.Labels[fp] = verdict
		v := "cold"
		if verdict {
			v = "hot"
		}
		e.mets.reg.Counter("learn_labels_total", telemetry.L("verdict", v)).Inc()
	}
	return nil
}

// labelSample runs one member through the supervised-attempt loop, with
// oracle panics recovered into attempt failures. Returns the verdict,
// the attempts burned, and the final error when the attempt budget is
// exhausted.
func (e *Engine) labelSample(ctx context.Context, cand Candidate) (bool, int, error) {
	rcfg := e.cfg.OracleRetry
	rcfg.MaxAttempts = e.cfg.OracleAttempts
	// Decorrelate jitter across samples while staying deterministic for
	// a fixed candidate set: the fingerprint is the seed material.
	rcfg.Seed = rcfg.Seed*31 + int64(binary.BigEndian.Uint64(cand.FP[:8])>>1) + 1

	octx, ospan := trace.Start(ctx, "learn.oracle")
	ospan.SetAttr("fp", fmt.Sprintf("%x", cand.FP[:8]))
	defer ospan.End()

	var verdict bool
	attempts, err := resilience.Supervise(octx, rcfg, e.breaker, e.cfg.OracleDeadline,
		func(ctx context.Context, n int) (err error) {
			if n > 1 {
				e.mets.oracleRetries.Inc()
			}
			start := time.Now()
			if verdict, err = safeOracle(ctx, e.cfg.Oracle, cand.Clip); err == nil {
				e.mets.oracleSeconds.ObserveDuration(time.Since(start))
			}
			return err
		})
	if err != nil {
		ospan.SetError(err)
		return false, attempts, err
	}
	ospan.SetAttrInt("attempts", attempts)
	return verdict, attempts, nil
}

// safeOracle isolates oracle panics: a panicking simulation fails the
// attempt instead of killing the loop.
func safeOracle(ctx context.Context, oracle func(context.Context, layout.Clip) (bool, error), clip layout.Clip) (v bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("oracle panic: %v", r)
		}
	}()
	return oracle(ctx, clip)
}

// quarantine journals one poison member.
func (e *Engine) quarantine(batch *BatchState, fp layout.Fingerprint, attempts int, msg string) error {
	err := e.wal.Append(Record{
		Kind: RecQuarantine, BatchID: batch.ID, FP: fp,
		Attempts: attempts, Err: msg,
	})
	if err != nil {
		return err
	}
	batch.Quarantined[fp] = QuarantineInfo{Attempts: attempts, Err: msg}
	e.mets.quarantined.Inc()
	e.logf("datengine: batch %d quarantined %x after %d attempts: %s", batch.ID, fp[:4], attempts, msg)
	return nil
}

// labeledSet assembles the training samples in selection order —
// the order the batch record pins, independent of labeling timing.
func (e *Engine) labeledSet(batch *BatchState) []core.LabeledClip {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]core.LabeledClip, 0, len(batch.Labels))
	for _, fp := range batch.FPs {
		hot, ok := batch.Labels[fp]
		if !ok {
			continue
		}
		cand, ok := e.state.Candidates[fp]
		if !ok {
			continue
		}
		out = append(out, core.LabeledClip{Clip: cand.Clip, Hotspot: hot})
	}
	return out
}

// finishBatch journals the terminal record and folds it into state.
func (e *Engine) finishBatch(batch *BatchState, rep *CycleReport, outcome, modelPath, reason string) error {
	err := e.wal.Append(Record{
		Kind: RecShipped, BatchID: batch.ID,
		Outcome: outcome, ModelPath: modelPath, Reason: reason,
	})
	if err != nil {
		return err
	}
	rep.Outcome = outcome
	rep.Reason = reason
	e.mu.Lock()
	if e.state.Pending != nil && e.state.Pending.ID == batch.ID {
		e.state.Pending = nil
	}
	if outcome == OutcomeShipped {
		e.state.Shipped++
		e.state.LastModel = modelPath
	} else {
		e.state.Rejected++
	}
	e.mu.Unlock()
	e.mets.reg.Counter("learn_batches_total", telemetry.L("outcome", outcome)).Inc()
	e.logf("datengine: batch %d %s%s", batch.ID, outcome, reasonSuffix(reason))
	return nil
}

func reasonSuffix(reason string) string {
	if reason == "" {
		return ""
	}
	return ": " + reason
}
