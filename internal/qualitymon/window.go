// Package qualitymon is the model-quality observability layer: a
// deterministic shadow-oracle spot-checker maintaining online confusion
// estimates, a multi-window SLO burn-rate alert state machine over serve
// outcomes only (a mismatch never pages), and the two taps that feed the
// active-learning data engine. It is dependency free, exports through
// the telemetry registry, and is built so that every output is a pure
// function of the observed event multiset — not of arrival order —
// which is what makes /debug/quality byte-identical across worker counts.
//
// The core data structure is one ring of sub-windows keyed by absolute
// epoch (time / sub-window duration), each holding six integer
// counters: the spot-check confusion cells and the SLO's good and bad
// serve outcomes. Integer increments commute and sub-window assignment
// depends only on the event timestamp, so merging the ring is
// order-independent. See DESIGN.md §16.
package qualitymon

import "time"

// The counters of one sub-window: the spot-check confusion cells, then
// the SLO's good and bad serve outcomes.
const (
	confTP = iota
	confFP
	confTN
	confFN
	sloGood
	sloBad
	ringWidth
)

// subWindow is one rotation slot of a window ring: the counts observed
// during one absolute epoch.
type subWindow struct {
	epoch  int64 // at.UnixNano() / subDur; -1 = empty slot
	counts [ringWidth]int64
}

// windowRing is a ring of sub-windows. Events land in the slot for their
// timestamp's epoch; slots whose epoch has rotated out are lazily
// cleared. Merging the most recent fastSubs slots yields the fast
// window, all of them the slow window. Not safe for concurrent use —
// callers hold the owning Monitor's mutex.
type windowRing struct {
	subDur int64 // sub-window duration in nanoseconds
	subs   []subWindow
}

// newWindowRing makes a ring of slots sub-windows of subDur each; both
// must be positive (New defaults SubWindow).
func newWindowRing(subDur time.Duration, slots int) *windowRing {
	r := &windowRing{subDur: int64(subDur), subs: make([]subWindow, slots)}
	r.reset()
	return r
}

func (r *windowRing) reset() {
	for i := range r.subs {
		r.subs[i] = subWindow{epoch: -1}
	}
}

func (r *windowRing) epochOf(at time.Time) int64 {
	return at.UnixNano() / r.subDur
}

// slot returns the sub-window for the epoch, clearing a stale occupant.
// Events older than the ring's span land nowhere (nil): counting them
// into a recycled slot would attribute stale traffic to the present.
func (r *windowRing) slot(epoch, now int64) *subWindow {
	if epoch <= now-int64(len(r.subs)) {
		return nil
	}
	s := &r.subs[((epoch%int64(len(r.subs)))+int64(len(r.subs)))%int64(len(r.subs))]
	if s.epoch != epoch {
		*s = subWindow{epoch: epoch}
	}
	return s
}

// add counts one event with timestamp at into counter idx. now is the
// current epoch (usually epochOf(clock.Now())); it bounds how stale an
// event may be and guards slot recycling.
func (r *windowRing) add(at time.Time, now int64, idx int) {
	if s := r.slot(r.epochOf(at), now); s != nil {
		s.counts[idx]++
	}
}

// merged sums the counters of the last n sub-windows ending at the epoch
// containing now (inclusive). n > len(subs) is clamped.
func (r *windowRing) merged(now int64, n int) [ringWidth]int64 {
	if n <= 0 || n > len(r.subs) {
		n = len(r.subs)
	}
	var out [ringWidth]int64
	for i := range r.subs {
		s := &r.subs[i]
		if s.epoch < 0 || s.epoch > now || s.epoch <= now-int64(n) {
			continue
		}
		for j, c := range s.counts {
			out[j] += c
		}
	}
	return out
}
