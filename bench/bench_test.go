package main

import (
	"bytes"
	"math"
	"testing"
	"time"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/scanfarm"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	asc := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	for _, tc := range []struct {
		n      int
		q      float64
		want   float64
		beyond int
		ok     bool
	}{
		{1000, 0.99, 990, 10, true},
		{999, 0.99, 990, 9, false},
		{100, 0.99, 99, 1, false},
		{100, 0.90, 90, 10, true},
		{20, 0.50, 10, 10, true},
		{19, 0.50, 10, 9, false},
		{0, 0.99, 0, 0, false},
	} {
		v, beyond, ok := percentile(asc(tc.n), tc.q)
		if v != tc.want || beyond != tc.beyond || ok != tc.ok {
			t.Errorf("percentile(n=%d, q=%v) = %v, %d beyond, ok=%v; want %v, %d, %v",
				tc.n, tc.q, v, beyond, ok, tc.want, tc.beyond, tc.ok)
		}
	}
}

func TestMedianAndSpread(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestSelfTimeIsDurationMinusCoveredChildren(t *testing.T) {
	at := func(v int) time.Duration { return time.Duration(v) * time.Microsecond }
	spans := []span{
		{name: "window", start: at(0), end: at(100), parent: -1},
		{name: "a", start: at(10), end: at(30), parent: 0},
		{name: "b", start: at(25), end: at(50), parent: 0},  // overlaps a: counted once
		{name: "c", start: at(90), end: at(120), parent: 0}, // runs past the parent: clipped
		{name: "a.inner", start: at(12), end: at(20), parent: 1},
		{name: "lone", start: at(200), end: at(230), parent: -1},
	}
	want := []time.Duration{at(100 - 40 - 10), at(20 - 8), at(25), at(30), at(8), at(30)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].name, got[i], want[i])
		}
	}
	tr := &tracer{spans: spans}
	if st := tr.byLayer()["window"]; st.n != 1 || st.self != at(50) || st.total != at(100) {
		t.Errorf("byLayer window = %+v", st)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := &tracer{t0: time.Now()}
	id := tr.begin("x", -1, 0)
	tr.end(id)
	if id != -1 || len(tr.spans) != 0 {
		t.Errorf("disabled tracer recorded: id %d, %d spans", id, len(tr.spans))
	}
	tr.on = true
	root := tr.begin("root", -1, 7)
	kid := tr.begin("kid", root, 7)
	tr.end(kid)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[kid].parent != root || tr.spans[kid].op != 7 {
		t.Errorf("spans = %+v", tr.spans)
	}
	if tr.spans[kid].start < tr.spans[root].start || tr.spans[kid].end > tr.spans[root].end {
		t.Errorf("child not inside parent: %+v", tr.spans)
	}
}

// cells are four hand-made clips: generating a suite would take longer
// than the rest of this file.
func testCells() []layout.Clip {
	win := geom.R(0, 0, clipNM, clipNM)
	core := geom.R(256, 256, 768, 768)
	mk := func(shapes ...geom.Rect) layout.Clip {
		return layout.Clip{Window: win, Core: core, Shapes: shapes}
	}
	return []layout.Clip{
		mk(geom.R(96, 96, 200, 900), geom.R(320, 96, 424, 900)),
		mk(geom.R(96, 96, 900, 180), geom.R(96, 400, 900, 484), geom.R(96, 700, 900, 784)),
		mk(geom.R(400, 400, 560, 560)),
		mk(geom.R(96, 96, 180, 600), geom.R(600, 300, 900, 380)),
	}
}

func TestArrayChipIsDeterministicAndRepeats(t *testing.T) {
	cells := testCells()
	a, err := arrayChip(3, cells, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := arrayChip(3, cells, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	var ab, bb bytes.Buffer
	if err := layout.Write(&ab, a); err != nil {
		t.Fatal(err)
	}
	if err := layout.Write(&bb, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
		t.Error("same seed gave different chips")
	}
	differs := false
	for seed := int64(4); seed < 8 && !differs; seed++ {
		c, err := arrayChip(seed, cells, 16, 8)
		if err != nil {
			t.Fatal(err)
		}
		var cb bytes.Buffer
		if err := layout.Write(&cb, c); err != nil {
			t.Fatal(err)
		}
		differs = !bytes.Equal(ab.Bytes(), cb.Bytes())
	}
	if !differs {
		t.Error("the seed does not change the chip")
	}

	// The cache hit rate a scan of this chip sees is one minus the share
	// of distinct fingerprints among its non-empty windows.
	plan := scanfarm.NewPlan(a.Bounds(), scanfarm.Config{ClipNM: clipNM, CoreFrac: coreFrac})
	distinct := make(map[layout.Fingerprint]bool)
	windows := 0
	for id := 0; id < plan.NumShards; id++ {
		for _, center := range plan.ShardWindows(id) {
			clip, err := a.ClipAt(center, plan.ClipNM, plan.CoreFrac)
			if err != nil {
				t.Fatal(err)
			}
			if len(clip.Shapes) == 0 {
				continue
			}
			windows++
			distinct[clip.Translate().Fingerprint()] = true
		}
	}
	if windows < 900 {
		t.Fatalf("only %d non-empty windows on a 16x16-tile chip", windows)
	}
	if rate := 1 - float64(len(distinct))/float64(windows); rate < 0.9 {
		t.Errorf("hit rate %.3f (%d distinct of %d windows), want >= 0.9 even on this small instance",
			rate, len(distinct), windows)
	}

	if _, err := arrayChip(1, cells, 10, 4); err == nil {
		t.Error("tiles not divisible into macros was accepted")
	}
	if _, err := arrayChip(1, nil, 16, 8); err == nil {
		t.Error("no cells was accepted")
	}
}

func TestGLTBodyRoundTripKeepsFingerprint(t *testing.T) {
	for i, cell := range testCells() {
		body, err := gltBody(cell)
		if err != nil {
			t.Fatal(err)
		}
		l, err := layout.Read(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		// Same window as the original: the body carries every shape.
		back, err := l.ClipAt(cell.Window.Center(), clipNM, coreFrac)
		if err != nil {
			t.Fatal(err)
		}
		if back.Fingerprint() != cell.Fingerprint() {
			t.Errorf("cell %d: fingerprint changed across layout.Write -> layout.Read", i)
		}
		// servedClip is what the server does with the body: a window of
		// the same size centred on the shapes, not on the original window.
		served, err := servedClip(body)
		if err != nil {
			t.Fatal(err)
		}
		if served.Window.Dx() != clipNM || served.Window.Center() != l.Bounds().Center() {
			t.Errorf("cell %d: served window %v is not a %d nm window on the shapes' centre %v",
				i, served.Window, clipNM, l.Bounds().Center())
		}
	}
}

func findingsAt(xs ...int) []core.Finding {
	out := make([]core.Finding, len(xs))
	for i, x := range xs {
		out[i] = core.Finding{Center: geom.Pt(x, 0), Score: 0.9}
	}
	return out
}

func TestDiffFindings(t *testing.T) {
	a := findingsAt(1, 2, 3)
	if n := diffFindings(a, findingsAt(1, 2, 3)); n != 0 {
		t.Errorf("equal findings differ by %d", n)
	}
	if n := diffFindings(a, findingsAt(1, 3)); n != 1 {
		t.Errorf("one extra finding counted as %d", n)
	}
	if n := diffFindings(findingsAt(1, 2), findingsAt(3, 4)); n != 4 {
		t.Errorf("disjoint findings counted as %d", n)
	}
	if n := diffFindings(findingsAt(2, 1), findingsAt(1, 2)); n != 1 {
		t.Errorf("reordered findings counted as %d", n)
	}
	b := findingsAt(1, 2, 3)
	b[1].Score = 0.1
	if n := diffFindings(a, b); n != 1 {
		t.Errorf("one changed score counted as %d", n)
	}
}
