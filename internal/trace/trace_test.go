package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/golitho/hsd/internal/resilience"
	"github.com/golitho/hsd/internal/telemetry"
)

func testTracer(t *testing.T, cfg Config) (*Tracer, *resilience.FakeClock) {
	t.Helper()
	clk := resilience.NewFakeClock(time.Unix(1700000000, 0))
	cfg.Clock = clk
	return New(cfg), clk
}

func TestSpanTreeRetained(t *testing.T) {
	tr, clk := testTracer(t, Config{})
	ctx := WithTracer(context.Background(), tr)

	ctx, root := Start(ctx, "http /score", A("method", "POST"))
	if root == nil {
		t.Fatal("root span is nil with enabled tracer")
	}
	clk.Advance(time.Millisecond)
	cctx, child := Start(ctx, "raster")
	clk.Advance(2 * time.Millisecond)
	_, grand := Start(cctx, "features")
	grand.SetAttrInt("dim", 128)
	clk.Advance(3 * time.Millisecond)
	grand.End()
	child.End()
	root.AddEvent("verdict", A("hotspot", "true"))
	clk.Advance(time.Millisecond)
	root.End()

	got := tr.Get(root.TraceID())
	if got == nil {
		t.Fatal("trace not retained")
	}
	if got.Root != "http /score" {
		t.Fatalf("root name = %q", got.Root)
	}
	if got.Duration != 7*time.Millisecond {
		t.Fatalf("root duration = %v", got.Duration)
	}
	if len(got.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(got.Spans))
	}
	byName := map[string]SpanRecord{}
	for _, sp := range got.Spans {
		byName[sp.Name] = sp
	}
	if byName["raster"].ParentID != root.ID().String() {
		t.Fatalf("raster parent = %q, want %q", byName["raster"].ParentID, root.ID())
	}
	if byName["features"].ParentID != byName["raster"].SpanID {
		t.Fatal("features span not parented to raster")
	}
	if byName["features"].Duration != 3*time.Millisecond {
		t.Fatalf("features duration = %v", byName["features"].Duration)
	}
	if len(byName["http /score"].Events) != 1 || byName["http /score"].Events[0].Name != "verdict" {
		t.Fatalf("root events = %+v", byName["http /score"].Events)
	}

	list := tr.Traces(0)
	if len(list) != 1 || list[0].TraceID != got.TraceID {
		t.Fatalf("Traces() = %+v", list)
	}
}

func TestDisabledIsNilAndFree(t *testing.T) {
	// No tracer in context: nil span, ctx unchanged.
	ctx := context.Background()
	ctx2, sp := Start(ctx, "anything")
	if sp != nil || ctx2 != ctx {
		t.Fatal("Start without tracer should return nil span and same ctx")
	}
	if !Disabled(ctx) {
		t.Fatal("Disabled(plain ctx) = false")
	}
	// All methods are nil-safe.
	sp.SetAttr("k", "v")
	sp.SetAttrInt("n", 1)
	sp.AddEvent("e")
	sp.SetError(errors.New("x"))
	sp.SetFlag(FlagPanic)
	sp.End()

	allocs := testing.AllocsPerRun(100, func() {
		_ = Disabled(ctx)
		_, s := Start(ctx, "x")
		s.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled Start allocates %v/op, want 0", allocs)
	}
	// A tracer in the context is the one thing that turns tracing on.
	tr, _ := testTracer(t, Config{})
	if Disabled(WithTracer(ctx, tr)) {
		t.Fatal("Disabled(ctx with tracer) = true")
	}
}

func TestTailSamplingKeepsFlagged(t *testing.T) {
	// Rand always says "drop": only flagged traces survive.
	cfg := Config{SampleRate: 0.5, SlowThreshold: 100 * time.Millisecond}
	cfg.Rand = func() float64 { return 0.99 }
	tr, clk := testTracer(t, cfg)
	ctx := WithTracer(context.Background(), tr)

	mk := func(name string, dur time.Duration, flag Flag, err error) TraceID {
		_, sp := Start(ctx, name)
		clk.Advance(dur)
		if flag != 0 {
			sp.SetFlag(flag)
		}
		sp.SetError(err)
		sp.End()
		return sp.TraceID()
	}

	fast := mk("normal", time.Millisecond, 0, nil)
	slow := mk("slow", 200*time.Millisecond, 0, nil)
	degraded := mk("degraded", time.Millisecond, FlagDegraded, nil)
	shed := mk("shed", time.Millisecond, FlagShed, nil)
	panicked := mk("panicked", time.Millisecond, FlagPanic, nil)
	errored := mk("errored", time.Millisecond, 0, errors.New("boom"))

	if tr.Get(fast) != nil {
		t.Fatal("unflagged fast trace retained despite drop-everything sampler")
	}
	for name, id := range map[string]TraceID{
		"slow": slow, "degraded": degraded, "shed": shed,
		"panic": panicked, "error": errored,
	} {
		rec := tr.Get(id)
		if rec == nil {
			t.Fatalf("%s trace was sampled out; tail sampling must retain it", name)
		}
		if len(rec.Flags) == 0 {
			t.Fatalf("%s trace retained without flags: %+v", name, rec)
		}
	}
	st := tr.Stats()
	if st.Kept != 5 || st.SampledOut != 1 {
		t.Fatalf("stats = %+v, want kept=5 sampledOut=1", st)
	}
}

func TestSampleRateHonored(t *testing.T) {
	// Deterministic coin: keep every 4th normal trace at rate 0.25.
	i := 0
	cfg := Config{SampleRate: 0.25, Capacity: 4096}
	cfg.Rand = func() float64 {
		i++
		if i%4 == 0 {
			return 0.1 // < rate: keep
		}
		return 0.9
	}
	tr, clk := testTracer(t, cfg)
	ctx := WithTracer(context.Background(), tr)
	const n = 400
	for j := 0; j < n; j++ {
		_, sp := Start(ctx, "normal")
		clk.Advance(time.Microsecond)
		sp.End()
	}
	st := tr.Stats()
	if st.Kept != n/4 || st.SampledOut != n-n/4 {
		t.Fatalf("stats = %+v, want kept=%d sampledOut=%d", st, n/4, n-n/4)
	}
}

// TestRingEviction: a tracer of capacity 8 keeps exactly the last 8
// traces, most recent first, whatever the number of spans per trace
// (trace and span ids share one counter, so the shape sets the stride
// between trace ids).
func TestRingEviction(t *testing.T) {
	for _, children := range []int{0, 1, 6} {
		t.Run(fmt.Sprintf("children=%d", children), func(t *testing.T) {
			tr, clk := testTracer(t, Config{Capacity: 8})
			ctx := WithTracer(context.Background(), tr)
			const n = 100
			for j := 0; j < n; j++ {
				rctx, sp := Start(ctx, fmt.Sprintf("t%d", j))
				for c := 0; c < children; c++ {
					_, ch := Start(rctx, "child")
					ch.End()
				}
				clk.Advance(time.Microsecond)
				sp.End()
			}
			got := tr.Traces(0)
			if len(got) != 8 {
				t.Fatalf("store holds %d traces, want its capacity 8", len(got))
			}
			for i, rec := range got {
				if want := fmt.Sprintf("t%d", n-1-i); rec.Root != want {
					t.Fatalf("Traces()[%d] = %s, want %s (the last 8, most recent first)", i, rec.Root, want)
				}
				if len(rec.Spans) != children+1 {
					t.Fatalf("trace %s has %d spans, want %d", rec.Root, len(rec.Spans), children+1)
				}
			}
			if got := tr.Traces(3); len(got) != 3 || got[0].Root != fmt.Sprintf("t%d", n-1) {
				t.Fatalf("Traces(3) = %d traces, first %v", len(got), got)
			}
		})
	}
}

func TestLateChildAfterRootEndIsDropped(t *testing.T) {
	tr, clk := testTracer(t, Config{})
	ctx := WithTracer(context.Background(), tr)
	ctx, root := Start(ctx, "req")
	_, bg := Start(ctx, "background")
	clk.Advance(time.Millisecond)
	root.End()
	clk.Advance(time.Millisecond)
	bg.End() // after the trace finished: must not corrupt the record
	rec := tr.Get(root.TraceID())
	if rec == nil {
		t.Fatal("trace missing")
	}
	if len(rec.Spans) != 1 {
		t.Fatalf("late child was attached: %d spans", len(rec.Spans))
	}
}

func TestStageHistograms(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr, clk := testTracer(t, Config{Metrics: reg})
	ctx := WithTracer(context.Background(), tr)
	ctx, root := Start(ctx, "scan.window")
	_, child := Start(ctx, "raster")
	clk.Advance(3 * time.Millisecond)
	child.End()
	clk.Advance(time.Millisecond)
	root.End()

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`hotspot_stage_seconds_count{stage="raster"} 1`,
		`hotspot_stage_seconds_count{stage="scan.window"} 1`,
		`traces_retained_total 1`,
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("metrics missing %q in:\n%s", want, out)
		}
	}
}

func TestParseTraceID(t *testing.T) {
	id := TraceID(0xdeadbeef)
	got, err := ParseTraceID(id.String())
	if err != nil || got != id {
		t.Fatalf("round trip = %v, %v", got, err)
	}
	if _, err := ParseTraceID("zzz"); err == nil {
		t.Fatal("bad id parsed")
	}
}

func TestChromeExport(t *testing.T) {
	tr, clk := testTracer(t, Config{})
	ctx := WithTracer(context.Background(), tr)
	ctx, root := Start(ctx, "req")
	clk.Advance(time.Millisecond)
	// Two overlapping children, as concurrent corner workers produce.
	_, c1 := Start(ctx, "corner")
	_, c2 := Start(ctx, "corner")
	clk.Advance(2 * time.Millisecond)
	c1.End()
	clk.Advance(time.Millisecond)
	c2.End()
	clk.Advance(time.Millisecond)
	root.End()

	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr.Traces(0)); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v\n%s", err, buf.String())
	}
	var xTIDs []float64
	names := map[string]bool{}
	for _, ev := range events {
		names[ev["name"].(string)] = true
		if ev["ph"] == "X" && ev["name"] == "corner" {
			xTIDs = append(xTIDs, ev["tid"].(float64))
		}
	}
	if !names["process_name"] || !names["req"] || !names["corner"] {
		t.Fatalf("missing events: %v", names)
	}
	if len(xTIDs) != 2 || xTIDs[0] == xTIDs[1] {
		t.Fatalf("overlapping corner spans must land on distinct lanes, got tids %v", xTIDs)
	}
}

func TestChromeExportEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var events []any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("empty export invalid: %v", err)
	}
}
