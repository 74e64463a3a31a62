// The trace store: one mutex-guarded ring of finished traces.
//
// The ring holds exactly Config.Capacity traces and evicts the oldest
// first, so memory is strictly bounded and a tracer of capacity N keeps
// the last N traces it retained, whatever their number of spans. Its
// lock is taken once per retained trace, where a tracer with Metrics
// already takes stageMu once per span.

package trace

import (
	"sort"
	"time"
)

// SpanRecord is one finished span, immutable once stored.
type SpanRecord struct {
	SpanID   string        `json:"spanId"`
	ParentID string        `json:"parentId,omitempty"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"durationNs"`
	Attrs    []Attr        `json:"attrs,omitempty"`
	Events   []Event       `json:"events,omitempty"`
	Error    string        `json:"error,omitempty"`
}

// TraceRecord is one finished, retained trace.
type TraceRecord struct {
	TraceID string `json:"traceId"`
	// Root is the root span's name, e.g. "http /score".
	Root     string        `json:"root"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"durationNs"`
	// Flags lists the tail-retention classes ("slow", "error",
	// "degraded", "shed", "panic"); empty for probabilistically sampled
	// normal traces.
	Flags []string     `json:"flags,omitempty"`
	Spans []SpanRecord `json:"spans"`
}

func (t *Tracer) store(rec *TraceRecord) {
	t.mu.Lock()
	t.ring[t.next] = rec
	t.next = (t.next + 1) % len(t.ring)
	t.mu.Unlock()
}

// Traces returns the retained traces, most recent first, up to limit
// (limit <= 0 means all).
func (t *Tracer) Traces(limit int) []*TraceRecord {
	if t == nil {
		return nil
	}
	var out []*TraceRecord
	t.mu.Lock()
	// Newest stored first, so traces that started at the same instant
	// keep that order through the stable sort.
	for i := range t.ring {
		if rec := t.ring[(t.next-1-i+len(t.ring))%len(t.ring)]; rec != nil {
			out = append(out, rec)
		}
	}
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Get returns the retained trace with the given id, or nil.
func (t *Tracer) Get(id TraceID) *TraceRecord {
	if t == nil {
		return nil
	}
	want := id.String()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, rec := range t.ring {
		if rec != nil && rec.TraceID == want {
			return rec
		}
	}
	return nil
}
