// Package qualitymon is the model-quality observability layer: streaming
// score-distribution sketches per (detector, stage), a deterministic
// shadow-oracle spot-checker maintaining online confusion estimates, and
// a multi-window SLO burn-rate alert state machine. It is dependency
// free, exports through the telemetry registry, and is built so that
// every output is a pure function of the observed event multiset — not
// of arrival order — which is what makes /debug/quality byte-identical
// across worker counts.
//
// The core data structure is a fixed-bin histogram over a ring of
// sub-windows keyed by absolute epoch (time / sub-window duration).
// Integer bin increments commute, sub-window assignment depends only on
// the event timestamp, and quantiles are interpolated from the merged
// bins rather than kept in an order-sensitive streaming sketch (GK, P²
// and friends reorder under concurrency). See DESIGN.md §16.
package qualitymon

import (
	"math"
	"time"
)

// subWindow is one rotation slot of a window ring: the counts observed
// during one absolute epoch.
type subWindow struct {
	epoch  int64 // at.UnixNano() / subDur; -1 = empty slot
	counts []int64
}

// windowRing is a ring of S sub-windows over a fixed-size counter
// vector. Events land in the slot for their timestamp's epoch; slots
// whose epoch has rotated out are lazily cleared. Merging the most
// recent F slots yields the fast window, all S the slow window. Not
// safe for concurrent use — callers hold the owning Monitor's mutex.
type windowRing struct {
	subDur int64 // sub-window duration in nanoseconds
	width  int   // counters per sub-window
	subs   []subWindow
}

func newWindowRing(subDur time.Duration, slots, width int) *windowRing {
	if subDur <= 0 {
		subDur = 10 * time.Second
	}
	if slots <= 0 {
		slots = 1
	}
	r := &windowRing{subDur: int64(subDur), width: width, subs: make([]subWindow, slots)}
	r.reset()
	return r
}

func (r *windowRing) reset() {
	for i := range r.subs {
		r.subs[i].epoch = -1
		if r.subs[i].counts == nil {
			r.subs[i].counts = make([]int64, r.width)
		} else {
			clear(r.subs[i].counts)
		}
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
		s.epoch = epoch
		clear(s.counts)
	}
	return s
}

// add counts one event with timestamp at into counter idx. now is the
// current epoch (usually epochOf(clock.Now())); it bounds how stale an
// event may be and guards slot recycling.
func (r *windowRing) add(at time.Time, now int64, idx int, delta int64) {
	if s := r.slot(r.epochOf(at), now); s != nil {
		s.counts[idx] += delta
	}
}

// merged sums the counter vectors of the last n sub-windows ending at
// the epoch containing now (inclusive). n > len(subs) is clamped.
func (r *windowRing) merged(now int64, n int) []int64 {
	if n <= 0 || n > len(r.subs) {
		n = len(r.subs)
	}
	out := make([]int64, r.width)
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

// sketchBins is the score sketches' resolution.
const sketchBins = 20

// scoreEdges are the bin upper bounds every score sketch shares: bin i
// counts scores v with scoreEdges[i-1] < v <= scoreEdges[i], and bin
// len(scoreEdges) is the overflow bin. They span [0,1], where calibrated
// probabilities and the neural detectors' scores live; raw scores
// outside it pile into the open end bins.
var scoreEdges = func() []float64 {
	edges := make([]float64, sketchBins-1)
	for i := range edges {
		edges[i] = float64(i+1) / sketchBins
	}
	return edges
}()

// quantile interpolates the q-quantile (0..1) from binned counts,
// assuming mass is uniform within a bin. The open end bins borrow the
// width of their interior neighbor. Returns NaN when the counts are
// empty. Because it reads only (edges, merged counts), it is as
// order-independent as the counts themselves.
func quantile(edges []float64, counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(edges) == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		if float64(cum)+float64(c) < rank || c == 0 {
			cum += c
			continue
		}
		lo, hi := binBounds(edges, i)
		frac := (rank - float64(cum)) / float64(c)
		if frac < 0 {
			frac = 0
		} else if frac > 1 {
			frac = 1
		}
		return lo + frac*(hi-lo)
	}
	_, hi := binBounds(edges, len(counts)-1)
	return hi
}

// binBounds returns the (lo, hi] interval bin i covers, synthesizing
// finite bounds for the open underflow/overflow bins.
func binBounds(edges []float64, i int) (lo, hi float64) {
	n := len(edges)
	width := 1.0
	if n >= 2 {
		width = edges[1] - edges[0]
	}
	switch {
	case i == 0:
		return edges[0] - width, edges[0]
	case i >= n:
		if n >= 2 {
			width = edges[n-1] - edges[n-2]
		}
		return edges[n-1], edges[n-1] + width
	default:
		return edges[i-1], edges[i]
	}
}
