// Chrome trace_event export: renders retained traces in the JSON array
// format consumed by about:tracing and Perfetto, so a served request or
// an offline benchmark run can be inspected as a flame chart.
//
// Each trace becomes one "process" (pid) named after its root span;
// spans become complete ("X") events. Because concurrent sibling spans
// (scan workers, lithosim corners) overlap in time, spans are assigned
// to "thread" lanes greedily — a span goes to the first lane free at
// its start time — which renders parallelism as parallel rows instead
// of bogus nesting.

package trace

import (
	"encoding/json"
	"io"
	"time"
)

// chromeEvent is one entry of the trace_event array.
type chromeEvent struct {
	Name  string            `json:"name"`
	Phase string            `json:"ph"`
	TS    int64             `json:"ts"`            // microseconds
	Dur   int64             `json:"dur,omitempty"` // microseconds
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Args  map[string]string `json:"args,omitempty"`
}

func micros(t time.Time, base time.Time) int64 {
	return t.Sub(base).Microseconds()
}

// WriteChrome renders traces as a Chrome trace_event JSON array.
// Timestamps are rebased to the earliest span so the viewer opens at
// t=0 regardless of wall-clock epoch.
func WriteChrome(w io.Writer, traces []*TraceRecord) error {
	var events []chromeEvent
	var base time.Time
	for _, tr := range traces {
		for _, sp := range tr.Spans {
			if base.IsZero() || sp.Start.Before(base) {
				base = sp.Start
			}
		}
	}
	for ti, tr := range traces {
		pid := ti + 1
		events = append(events, chromeEvent{
			Name: "process_name", Phase: "M", PID: pid, TID: 0,
			Args: map[string]string{"name": tr.Root + " [" + tr.TraceID + "]"},
		})
		lanes := assignLanes(tr.Spans)
		for si, sp := range tr.Spans {
			args := make(map[string]string, len(sp.Attrs)+2)
			args["traceId"] = tr.TraceID
			if sp.ParentID != "" {
				args["parent"] = sp.ParentID
			}
			for _, a := range sp.Attrs {
				args[a.Key] = a.Value
			}
			if sp.Error != "" {
				args["error"] = sp.Error
			}
			dur := sp.Duration.Microseconds()
			if dur < 1 {
				dur = 1 // sub-microsecond spans still render
			}
			events = append(events, chromeEvent{
				Name: sp.Name, Phase: "X",
				TS: micros(sp.Start, base), Dur: dur,
				PID: pid, TID: lanes[si],
				Args: args,
			})
			for _, ev := range sp.Events {
				evArgs := make(map[string]string, len(ev.Attrs))
				for _, a := range ev.Attrs {
					evArgs[a.Key] = a.Value
				}
				events = append(events, chromeEvent{
					Name: ev.Name, Phase: "i",
					TS:  micros(ev.Time, base),
					PID: pid, TID: lanes[si],
					Args: evArgs,
				})
			}
		}
	}
	if events == nil {
		events = []chromeEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// assignLanes gives each span a lane such that spans sharing a lane are
// either disjoint in time or properly nested — exactly the invariant
// the Chrome viewer needs to stack "X" events on one thread row. A
// sequential parent→child chain stays in lane 0 and renders as a flame
// graph; concurrent siblings (scan workers, corner workers) spill to
// higher lanes and render side by side. Greedy first-fit in start
// order, each lane tracking its stack of still-open intervals.
func assignLanes(spans []SpanRecord) []int {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	// Insertion sort by start time, longest span first on ties, so a
	// parent sharing a start timestamp with its child (coarse or fake
	// clocks) is placed before the child and the child can nest into
	// its lane. Record order alone is not chronological: children are
	// recorded before their parents.
	before := func(a, b SpanRecord) bool {
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		return a.Duration > b.Duration
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && before(spans[order[j]], spans[order[j-1]]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	parentOf := make(map[string]string, len(spans))
	for _, sp := range spans {
		parentOf[sp.SpanID] = sp.ParentID
	}
	// isAncestor reports whether span a is on span b's parent chain.
	isAncestor := func(a, b string) bool {
		for p := parentOf[b]; p != ""; p = parentOf[p] {
			if p == a {
				return true
			}
		}
		return false
	}
	type openSpan struct {
		id  string
		end time.Time
	}
	lanes := make([]int, len(spans))
	var open [][]openSpan // per lane: stack of still-open spans
	for _, si := range order {
		sp := spans[si]
		end := sp.Start.Add(sp.Duration)
		placed := false
		for li := range open {
			stack := open[li]
			// Close spans that ended before this one starts.
			for len(stack) > 0 && !stack[len(stack)-1].end.After(sp.Start) {
				stack = stack[:len(stack)-1]
			}
			// The lane fits when it is idle, or its innermost open span
			// is an ancestor that fully contains this one: true
			// parent-chain nesting, never sibling-on-sibling stacking.
			if len(stack) == 0 ||
				(isAncestor(stack[len(stack)-1].id, sp.SpanID) && !stack[len(stack)-1].end.Before(end)) {
				lanes[si] = li
				open[li] = append(stack, openSpan{sp.SpanID, end})
				placed = true
				break
			}
			open[li] = stack
		}
		if !placed {
			lanes[si] = len(open)
			open = append(open, []openSpan{{sp.SpanID, end}})
		}
	}
	return lanes
}
