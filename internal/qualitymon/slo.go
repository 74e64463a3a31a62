// SLO burn-rate math and the alert state machine, following the
// multi-window burn-rate pattern: with target T, the error budget is
// 1-T; the burn rate of a window is (bad fraction) / (1-T) — 1 means
// the budget exactly runs out over the SLO period, pageBurn (2)
// over the fast window pages, slow-window burn >= 1 warns. Its events
// are serve outcomes and oracle spot checks; a spot-check mismatch is a
// bad event, so a confirmed labelling error spends budget. Upgrades are
// immediate; downgrades wait out clearHoldSubs sub-windows below the
// current level, so a flapping signal cannot strobe the pager.
//
// The machine advances inside Snapshot (and therefore on every metrics
// scrape via OnCollect) rather than on a timer — the same pull-style
// contract the rest of the telemetry stack uses.

package qualitymon

import (
	"math"
	"sort"
	"time"
)

// pageBurn is the fast-window burn-rate multiple that pages: error
// budget burning at twice the sustainable rate.
const pageBurn = 2

// SketchSnapshot is one (detector, stage) series in a quality snapshot.
type SketchSnapshot struct {
	Detector string  `json:"detector"`
	Stage    string  `json:"stage"`
	Fast     int64   `json:"fast_count"`
	Slow     int64   `json:"slow_count"`
	P50      float64 `json:"p50"`
	P90      float64 `json:"p90"`
	P99      float64 `json:"p99"`
	// FastBins are the fast-window bin counts; Edges their upper bounds.
	Edges    []float64 `json:"edges"`
	FastBins []int64   `json:"fast_bins"`
}

// ConfusionSnapshot is the slow-window spot-check confusion state.
type ConfusionSnapshot struct {
	TP int64 `json:"tp"`
	FP int64 `json:"fp"`
	TN int64 `json:"tn"`
	FN int64 `json:"fn"`
	// Recall and FalseAlarm are 0 when their denominator is empty
	// (check the counts, not the rates, for "no data").
	Recall     float64 `json:"recall"`
	FalseAlarm float64 `json:"false_alarm"`
}

// SpotCheckSnapshot covers the shadow-oracle pipeline.
type SpotCheckSnapshot struct {
	Sampled    int64             `json:"sampled_total"`
	Mismatches int64             `json:"mismatches_total"`
	Dropped    int64             `json:"dropped_total"`
	Errors     int64             `json:"errors_total"`
	Window     ConfusionSnapshot `json:"window"`
	Recall     float64           `json:"recall"`
	FalseAlarm float64           `json:"false_alarm"`
}

// SLOSnapshot is the burn-rate state.
type SLOSnapshot struct {
	Target   float64 `json:"target"`
	FastGood int64   `json:"fast_good"`
	FastBad  int64   `json:"fast_bad"`
	SlowGood int64   `json:"slow_good"`
	SlowBad  int64   `json:"slow_bad"`
	BurnFast float64 `json:"burn_fast"`
	BurnSlow float64 `json:"burn_slow"`
}

// AlertSnapshot is the state machine's output.
type AlertSnapshot struct {
	State int    `json:"state"` // 0 ok, 1 warning, 2 page
	Name  string `json:"name"`
}

// Snapshot is the full /debug/quality document. With a fake clock and
// identical event multisets it is byte-identical regardless of worker
// count or arrival order.
type Snapshot struct {
	At        time.Time         `json:"at"`
	Sketches  []SketchSnapshot  `json:"sketches"`
	SpotCheck SpotCheckSnapshot `json:"spot_check"`
	SLO       SLOSnapshot       `json:"slo"`
	Alert     AlertSnapshot     `json:"alert"`
}

// ratio is a/(a+b), 0 when empty — snapshots must be JSON-marshalable,
// which NaN is not.
func ratio(a, b int64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

// finite maps NaN/Inf (empty-window quantiles) to 0 for JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// burnRate is the burn multiple of a window: bad fraction over error
// budget. Disabled (or empty) inputs burn nothing.
func burnRate(good, bad int64, target float64) float64 {
	if target <= 0 || target >= 1 || good+bad == 0 {
		return 0
	}
	return (float64(bad) / float64(good+bad)) / (1 - target)
}

// Snapshot evaluates the sketches, confusion, and burn rates at the
// current clock reading, advances the alert state machine, and returns
// the full document.
func (m *Monitor) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{Alert: AlertSnapshot{Name: alertName(AlertOK)}}
	}
	now := m.clock.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	epoch := m.conf.epochOf(now)
	keys := make([]seriesKey, 0, len(m.sketches))
	for k := range m.sketches {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].detector != keys[j].detector {
			return keys[i].detector < keys[j].detector
		}
		return keys[i].stage < keys[j].stage
	})

	snap := Snapshot{At: now}
	for _, k := range keys {
		sk := m.sketches[k]
		fast := sk.merged(epoch, fastSubs)
		slow := sk.merged(epoch, slowSubs)
		ss := SketchSnapshot{
			Detector: k.detector,
			Stage:    k.stage,
			Edges:    append([]float64(nil), scoreEdges...),
			FastBins: fast,
			P50:      finite(quantile(scoreEdges, fast, 0.50)),
			P90:      finite(quantile(scoreEdges, fast, 0.90)),
			P99:      finite(quantile(scoreEdges, fast, 0.99)),
		}
		for _, c := range fast {
			ss.Fast += c
		}
		for _, c := range slow {
			ss.Slow += c
		}
		snap.Sketches = append(snap.Sketches, ss)
	}

	conf := m.conf.merged(epoch, slowSubs)
	snap.SpotCheck = SpotCheckSnapshot{
		Sampled:    m.spotSampled.Load(),
		Mismatches: m.spotMismatch.Load(),
		Dropped:    m.spotDropped.Load(),
		Errors:     m.spotErrors.Load(),
		Window: ConfusionSnapshot{
			TP: conf[confTP], FP: conf[confFP], TN: conf[confTN], FN: conf[confFN],
			Recall:     ratio(conf[confTP], conf[confFN]),
			FalseAlarm: ratio(conf[confFP], conf[confTN]),
		},
	}
	snap.SpotCheck.Recall = snap.SpotCheck.Window.Recall
	snap.SpotCheck.FalseAlarm = snap.SpotCheck.Window.FalseAlarm

	fastSLO := m.slo.merged(epoch, fastSubs)
	slowSLO := m.slo.merged(epoch, slowSubs)
	snap.SLO = SLOSnapshot{
		Target:   m.opts.SLOTarget,
		FastGood: fastSLO[sloGood], FastBad: fastSLO[sloBad],
		SlowGood: slowSLO[sloGood], SlowBad: slowSLO[sloBad],
		BurnFast: burnRate(fastSLO[sloGood], fastSLO[sloBad], m.opts.SLOTarget),
		BurnSlow: burnRate(slowSLO[sloGood], slowSLO[sloBad], m.opts.SLOTarget),
	}

	// Desired level from the raw inputs, then hysteresis.
	desired := AlertOK
	if snap.SLO.BurnSlow >= 1 {
		desired = AlertWarning
	}
	if snap.SLO.BurnFast >= pageBurn {
		desired = AlertPage
	}
	switch {
	case desired >= m.alertState:
		m.alertState = desired
		m.belowSince = time.Time{}
	case m.belowSince.IsZero():
		m.belowSince = now
	case now.Sub(m.belowSince) >= clearHoldSubs*m.opts.SubWindow:
		m.alertState = desired
		m.belowSince = time.Time{}
	}
	snap.Alert = AlertSnapshot{State: m.alertState, Name: alertName(m.alertState)}
	return snap
}
