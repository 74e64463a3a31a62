package layout_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"testing"

	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/iccad"
	"github.com/golitho/hsd/internal/layout"
)

// updateFingerprintGolden rewrites testdata/fingerprint_golden.json from
// the running code. The committed file was written at the commit before
// Fingerprint became one pass (sort.Slice over a translated copy, one
// hash.Hash Write per rectangle); regenerating it later defeats its
// purpose, which is to pin the 16 bytes qualitymon's spot-check sampling
// and datengine's dedupe key on.
var updateFingerprintGolden = flag.Bool("update-fingerprint-golden", false, "rewrite the fingerprint golden (see comment)")

const fingerprintGoldenPath = "testdata/fingerprint_golden.json"

// goldenClip is one line of the golden: the clip's geometry as
// [x0,y0,x1,y1] quadruples (so the file needs no generator to replay)
// and the fingerprint the parent commit gave it.
type goldenClip struct {
	Name        string   `json:"name"`
	Window      [4]int   `json:"window"`
	Core        [4]int   `json:"core"`
	Shapes      [][4]int `json:"shapes"`
	Fingerprint string   `json:"fingerprint"`
}

func quad(r geom.Rect) [4]int { return [4]int{r.Min.X, r.Min.Y, r.Max.X, r.Max.Y} }

func rect(q [4]int) geom.Rect {
	return geom.Rect{Min: geom.Pt(q[0], q[1]), Max: geom.Pt(q[2], q[3])}
}

func (g goldenClip) clip() layout.Clip {
	c := layout.Clip{Window: rect(g.Window), Core: rect(g.Core)}
	for _, q := range g.Shapes {
		c.Shapes = append(c.Shapes, rect(q))
	}
	return c
}

// fingerprintFixture is the small suite's test clips (seed 1) plus the
// cases a rewrite is likeliest to get wrong.
func fingerprintFixture(t *testing.T) []goldenClip {
	suite, err := iccad.GenerateSuite(iccad.SmallSuiteConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	var out []goldenClip
	add := func(name string, c layout.Clip) {
		g := goldenClip{Name: name, Window: quad(c.Window), Core: quad(c.Core), Shapes: [][4]int{}}
		for _, s := range c.Shapes {
			g.Shapes = append(g.Shapes, quad(s))
		}
		out = append(out, g)
	}
	for _, b := range suite.Benchmarks {
		for i, s := range b.Test.Samples {
			add(fmt.Sprintf("%s/test/%d", b.Name, i), s.Clip)
		}
	}
	win, core := geom.R(0, 0, 1024, 1024), geom.R(256, 256, 768, 768)
	add("empty", layout.Clip{Window: win, Core: core})
	// 300 shapes: past any stack-backed buffer, in descending canonical
	// order so the sort has everything to do.
	var many []geom.Rect
	for i := 299; i >= 0; i-- {
		x, y := (i%20)*48, (i/20)*64
		many = append(many, geom.R(x, y, x+24+i%7, y+32+i%5))
	}
	add("300-shapes-reversed", layout.Clip{Window: win, Core: core, Shapes: many})
	neg := geom.Pt(-70000, -3100)
	add("negative-coordinates", layout.Clip{
		Window: win.Translate(neg), Core: core.Translate(neg),
		Shapes: []geom.Rect{
			geom.R(10, 10, 200, 64).Translate(neg),
			geom.R(300, 100, 364, 800).Translate(neg),
			geom.R(0, 400, 500, 460).Translate(neg),
		},
	})
	add("window-straddles-origin", layout.Clip{
		Window: geom.R(-512, -512, 512, 512), Core: geom.R(-256, -256, 256, 256),
		Shapes: []geom.Rect{geom.R(-512, -40, 512, 40), geom.R(-40, -512, 40, -100), geom.R(100, 100, 512, 160)},
	})
	dup := geom.R(100, 100, 400, 160)
	add("duplicate-rectangles", layout.Clip{Window: win, Core: core,
		Shapes: []geom.Rect{dup, geom.R(600, 100, 660, 900), dup}})
	// Ties on every prefix of the (MinY, MinX, MaxY, MaxX) key.
	add("sort-key-ties", layout.Clip{Window: win, Core: core, Shapes: []geom.Rect{
		geom.R(64, 64, 200, 128), geom.R(64, 64, 100, 128), geom.R(64, 64, 100, 96),
		geom.R(32, 64, 100, 96), geom.R(64, 32, 100, 96),
	}})
	add("full-core", layout.Clip{Window: win, Core: win, Shapes: []geom.Rect{dup}})
	add("odd-size", layout.Clip{Window: geom.R(7, 9, 1008, 1010), Core: geom.R(257, 259, 757, 759),
		Shapes: []geom.Rect{geom.R(7, 9, 8, 10), geom.R(1007, 1009, 1008, 1010)}})
	return out
}

// TestFingerprintGolden holds Clip.Fingerprint to the exact 16 bytes the
// parent commit computed for every clip in the golden, in the stored
// order, reversed (the canonical sort must hide insertion order) and
// translated (the key is position independent).
func TestFingerprintGolden(t *testing.T) {
	if *updateFingerprintGolden {
		var buf bytes.Buffer
		for _, g := range fingerprintFixture(t) {
			g.Fingerprint = g.clip().Fingerprint().String()
			line, err := json.Marshal(g)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
		if err := os.WriteFile(fingerprintGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(fingerprintGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	distinct := map[string]bool{}
	n := 0
	for ; dec.More(); n++ {
		var g goldenClip
		if err := dec.Decode(&g); err != nil {
			t.Fatal(err)
		}
		distinct[g.Fingerprint] = true
		c := g.clip()
		if got := c.Fingerprint().String(); got != g.Fingerprint {
			t.Errorf("%s: fingerprint %s, parent commit %s", g.Name, got, g.Fingerprint)
		}
		rev := layout.Clip{Window: c.Window, Core: c.Core, Shapes: slices.Clone(c.Shapes)}
		slices.Reverse(rev.Shapes)
		if got := rev.Fingerprint().String(); got != g.Fingerprint {
			t.Errorf("%s reversed: fingerprint %s, parent commit %s", g.Name, got, g.Fingerprint)
		}
		d := geom.Pt(123456-c.Window.Min.X, -98765-c.Window.Min.Y)
		moved := layout.Clip{Window: c.Window.Translate(d), Core: c.Core.Translate(d)}
		for _, s := range c.Shapes {
			moved.Shapes = append(moved.Shapes, s.Translate(d))
		}
		if got := moved.Fingerprint().String(); got != g.Fingerprint {
			t.Errorf("%s translated: fingerprint %s, parent commit %s", g.Name, got, g.Fingerprint)
		}
		if got := c.Translate().Fingerprint().String(); got != g.Fingerprint {
			t.Errorf("%s canonical: fingerprint %s, parent commit %s", g.Name, got, g.Fingerprint)
		}
	}
	if n < 150 || len(distinct) < n-5 {
		t.Fatalf("golden has %d clips, %d distinct fingerprints: the fixture is degenerate", n, len(distinct))
	}
}
