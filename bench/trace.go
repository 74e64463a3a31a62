package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program's own spans are not used). parent is a span
// index or -1; op groups the spans of one window, request or cycle.
type span struct {
	name       string
	start, end time.Duration // since tracer.t0
	parent, op int
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// (on == false) records nothing and begin returns -1, so the replay
// loops run the same code with tracing off to measure its overhead.
// Every traced pass is serial, so the tracer is single-goroutine.
type tracer struct {
	t0    time.Time
	on    bool
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), on: true, spans: make([]span, 0, 1<<16)}
}

func (t *tracer) begin(name string, parent, op int) int {
	if !t.on {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, parent: parent, op: op})
	// Clock read last so the bookkeeping above is charged to the parent.
	t.spans[id].start = time.Since(t.t0)
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].end = time.Since(t.t0)
}

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	type iv struct{ a, b time.Duration }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], iv{s.start, s.end})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.end - s.start
		ivs := kids[i]
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, edge := time.Duration(0), s.start
		for _, c := range ivs {
			a, b := c.a, c.b
			if a < edge {
				a = edge
			}
			if b > s.end {
				b = s.end
			}
			if b > a {
				covered += b - a
				edge = b
			}
		}
		out[i] -= covered
	}
	return out
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	n     int
	self  time.Duration
	total time.Duration
}

func (l layerStat) meanSelf() time.Duration {
	if l.n == 0 {
		return 0
	}
	return l.self / time.Duration(l.n)
}

func (l layerStat) meanTotal() time.Duration {
	if l.n == 0 {
		return 0
	}
	return l.total / time.Duration(l.n)
}

func (t *tracer) byLayer() map[string]layerStat {
	self := selfTimes(t.spans)
	out := make(map[string]layerStat)
	for i, s := range t.spans {
		st := out[s.name]
		st.n++
		st.self += self[i]
		st.total += s.end - s.start
		out[s.name] = st
	}
	return out
}

// writeChrome emits the spans as Chrome trace_event JSON (complete
// events, microsecond timestamps) for about:tracing / ui.perfetto.dev.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	enc := json.NewEncoder(bw)
	for i, s := range t.spans {
		if i > 0 {
			if _, err := bw.WriteString(","); err != nil {
				return err
			}
		}
		ev := event{Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start),
			Pid: 1, Tid: 1, Args: map[string]int{"span": i, "parent": s.parent, "op": s.op}}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// writeLayerTable prints one row per layer: calls, mean and summed self
// time, and the layer's share of all self time.
func writeLayerTable(w io.Writer, layers map[string]layerStat) {
	names := make([]string, 0, len(layers))
	var all time.Duration
	for name, st := range layers {
		names = append(names, name)
		all += st.self
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]].self > layers[names[j]].self })
	fmt.Fprintf(w, "%-26s %9s %14s %12s %7s\n", "layer", "calls", "mean self us", "self ms", "share")
	for _, name := range names {
		st := layers[name]
		share := 0.0
		if all > 0 {
			share = float64(st.self) / float64(all)
		}
		fmt.Fprintf(w, "%-26s %9d %14.2f %12.2f %6.1f%%\n",
			name, st.n, us(st.meanSelf()), ms(st.self), 100*share)
	}
}
