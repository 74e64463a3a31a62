// SLO burn-rate math and the alert state machine, following the
// multi-window burn-rate pattern: with target T, the error budget is
// 1-T; the burn rate of a window is (bad fraction) / (1-T) — 1 means
// the budget exactly runs out over the SLO period, pageBurn (2)
// over the fast window pages, slow-window burn >= 1 warns. Its events
// are serve outcomes only: a spot-check mismatch rate tracks which model
// serves and how often clips are sampled, not lost recall (EXPERIMENTS.md,
// "Spot-check paging against its rule"). Upgrades are
// immediate; downgrades wait out clearHoldSubs sub-windows below the
// current level, so a flapping signal cannot strobe the pager.
//
// The machine advances inside Snapshot (and therefore on every metrics
// scrape via OnCollect) rather than on a timer — the same pull-style
// contract the rest of the telemetry stack uses.

package qualitymon

import (
	"math"
	"time"
)

// pageBurn is the fast-window burn-rate multiple that pages: error
// budget burning at twice the sustainable rate.
const pageBurn = 2

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

// SpotCheckSnapshot covers the shadow-oracle pipeline: the cumulative
// totals, and the slow window's confusion with its one rate pair.
type SpotCheckSnapshot struct {
	Sampled    int64             `json:"sampled_total"`
	Mismatches int64             `json:"mismatches_total"`
	Dropped    int64             `json:"dropped_total"`
	Errors     int64             `json:"errors_total"`
	Window     ConfusionSnapshot `json:"window"`
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

// burnRate is the burn multiple of a window: bad fraction over error
// budget. Disabled (or empty) inputs burn nothing. The budget is rounded
// to parts per million: 1 - .99 is 0.010000000000000009 in float64, so
// a window failing exactly 1 % would otherwise burn just under 1 and
// never warn.
func burnRate(good, bad int64, target float64) float64 {
	if target <= 0 || target >= 1 || good+bad == 0 {
		return 0
	}
	budget := 1 - target
	if ppm := math.Round(budget * 1e6); ppm > 0 {
		budget = ppm / 1e6
	}
	return (float64(bad) / float64(good+bad)) / budget
}

// Snapshot evaluates confusion and burn rates at the current clock
// reading, advances the alert state machine, and returns the full
// document.
func (m *Monitor) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{Alert: AlertSnapshot{Name: alertName(AlertOK)}}
	}
	now := m.clock.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	epoch := m.win.epochOf(now)
	fast := m.win.merged(epoch, fastSubs)
	slow := m.win.merged(epoch, slowSubs)

	snap := Snapshot{At: now}
	snap.SpotCheck = SpotCheckSnapshot{
		Sampled:    int64(m.mets.spotChecks.Value()),
		Mismatches: int64(m.mets.spotMismatches.Value()),
		Dropped:    int64(m.mets.spotDropped.Value()),
		Errors:     int64(m.mets.spotErrors.Value()),
		Window: ConfusionSnapshot{
			TP: slow[confTP], FP: slow[confFP], TN: slow[confTN], FN: slow[confFN],
			Recall:     ratio(slow[confTP], slow[confFN]),
			FalseAlarm: ratio(slow[confFP], slow[confTN]),
		},
	}

	snap.SLO = SLOSnapshot{
		Target:   m.opts.SLOTarget,
		FastGood: fast[sloGood], FastBad: fast[sloBad],
		SlowGood: slow[sloGood], SlowBad: slow[sloBad],
		BurnFast: burnRate(fast[sloGood], fast[sloBad], m.opts.SLOTarget),
		BurnSlow: burnRate(slow[sloGood], slow[sloBad], m.opts.SLOTarget),
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
