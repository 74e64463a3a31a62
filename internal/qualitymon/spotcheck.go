// The shadow-oracle spot-checker: a deterministic sample of scored
// clips is rescored with the lithography-simulation oracle, and the
// (model verdict, oracle verdict) pairs maintain sliding-window
// confusion estimates — online recall and false-alarm rate without
// labels. Sampling keys on the clip's content fingerprint, not a
// counter or RNG, so the sampled set is a pure function of the traffic:
// identical under any worker count or arrival order, and stable across
// process restarts.

package qualitymon

import (
	"context"
	"encoding/binary"
	"time"

	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/lithosim"
)

// spotJob is one sampled clip awaiting oracle rescoring. at is the
// observation time, so the confusion window reflects when the model
// answered, not when the (possibly backlogged) oracle got to it; gen is
// the monitor's generation then, so a check of a model that Reset has
// since retired never lands in its successor's window.
type spotJob struct {
	clip      layout.Clip
	predicted bool
	at        time.Time
	gen       uint64
}

// sampleFingerprint decides membership in the spot-check sample: the
// first 8 bytes of the content fingerprint, read as a uniform uint64,
// fall below rate's share of the space. Translation-invariant and
// order-independent by construction.
func sampleFingerprint(fp layout.Fingerprint, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	u := binary.BigEndian.Uint64(fp[:8])
	return float64(u) < rate*float64(1<<64)
}

// spotQueue bounds the async spot-check backlog; overflow increments a
// drop counter instead of blocking the scoring path.
const spotQueue = 256

// enqueueSpot hands a job to the checker through the bounded queue,
// which New made because this monitor samples. A full queue drops the
// job (counted) — spot checking is sampling, and blocking the scoring
// path on the oracle would invert the cost model the cascade exists to
// protect. So does a closed one: a clip sampled after Close is dropped,
// never sent.
func (m *Monitor) enqueueSpot(j spotJob) {
	m.mets.spotChecks.Inc()
	m.qmu.Lock()
	defer m.qmu.Unlock()
	if !m.closed.Load() {
		m.pending.Add(1)
		select {
		case m.spotq <- j:
			return
		default:
			m.pending.Add(-1)
		}
	}
	m.mets.spotDropped.Inc()
}

func (m *Monitor) spotWorker() {
	defer m.wg.Done()
	for j := range m.spotq {
		m.runSpotJob(j)
	}
}

// runSpotJob buys the oracle's verdict on one sampled clip under
// lithosim.Verify's deadline, retries and panic containment; a clip it
// cannot verify counts as a spot-check error and the worker moves on.
// A verdict fills one confusion cell of the window, unless the job's
// generation was reset in the meantime; a mismatch is counted and handed
// to the miss tap either way, since a confirmed label error is worth
// mining whichever model made it. Verdicts never feed the SLO.
func (m *Monitor) runSpotJob(j spotJob) {
	defer m.pending.Add(-1)
	actual, _, err := lithosim.Verify(context.Background(), m.opts.Oracle, j.clip)
	if err != nil {
		m.mets.spotErrors.Inc()
		m.logf("qualitymon: spot-check oracle: %v", err)
		return
	}
	idx := confTN
	switch {
	case actual && j.predicted:
		idx = confTP
	case actual && !j.predicted:
		idx = confFN
	case !actual && j.predicted:
		idx = confFP
	}
	if actual != j.predicted {
		m.mets.spotMismatches.Inc()
		if tap := m.opts.SpotMissTap; tap != nil {
			tap(j.clip, j.predicted, actual)
		}
	}
	m.mu.Lock()
	if j.gen == m.gen.Load() {
		m.win.add(j.at, m.win.epochOf(m.clock.Now()), idx)
	}
	m.mu.Unlock()
}

// DrainSpotChecks blocks until every enqueued spot check has been
// processed (or the timeout passes); a test seam. Returns false on
// timeout.
func (m *Monitor) DrainSpotChecks(timeout time.Duration) bool {
	if m == nil {
		return true
	}
	deadline := time.Now().Add(timeout)
	for m.pending.Load() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}
