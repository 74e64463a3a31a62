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
	"encoding/binary"
	"time"

	"github.com/golitho/hsd/internal/layout"
)

// spotJob is one sampled clip awaiting oracle rescoring. at is the
// observation time, so the confusion window reflects when the model
// answered, not when the (possibly backlogged) oracle got to it.
type spotJob struct {
	clip      layout.Clip
	predicted bool
	at        time.Time
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

// enqueueSpot hands a job to the checker: inline in sync mode, through
// the bounded queue otherwise. A full queue drops the job (counted) —
// spot checking is sampling, and blocking the scoring path on the
// oracle would invert the cost model the cascade exists to protect.
func (m *Monitor) enqueueSpot(j spotJob) {
	m.spotSampled.Add(1)
	m.mets.spotChecks.Inc()
	if m.opts.SyncSpotChecks || m.spotq == nil {
		m.pending.Add(1)
		m.runSpotJob(j)
		return
	}
	m.pending.Add(1)
	select {
	case m.spotq <- j:
	default:
		m.pending.Add(-1)
		m.spotDropped.Add(1)
		m.mets.spotDropped.Inc()
	}
}

func (m *Monitor) spotWorker() {
	defer m.wg.Done()
	for j := range m.spotq {
		m.runSpotJob(j)
	}
}

func (m *Monitor) runSpotJob(j spotJob) {
	defer m.pending.Add(-1)
	actual, err := m.opts.Oracle(j.clip)
	if err != nil {
		m.spotErrors.Add(1)
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
	match := actual == j.predicted
	if !match {
		m.spotMismatch.Add(1)
		m.mets.spotMismatches.Inc()
		if tap := m.opts.SpotMissTap; tap != nil {
			tap(j.clip, j.predicted, actual)
		}
	}
	m.mu.Lock()
	now := m.conf.epochOf(m.clock.Now())
	m.conf.add(j.at, now, idx, 1)
	sloIdx := sloBad
	if match {
		sloIdx = sloGood
	}
	m.slo.add(j.at, now, sloIdx, 1)
	m.mu.Unlock()
}

// DrainSpotChecks blocks until every enqueued spot check has been
// processed (or the timeout passes); for tests and end-of-scan
// summaries. Returns false on timeout.
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
