// Package relations holds metamorphic relations across subsystem
// boundaries, and nothing else. The tree's other equivalences run two
// paths over the same input: the scan farm against core.ScanCtx, a
// serve cache hit against its miss, each matmul kernel tier against the
// portable loop. A relation transforms the input instead (translates
// the chip, reorders its shapes, splits a rectangle, writes it out as
// GDSII, posts a window to the service) and checks that the output moves
// as the transformation says. That is what the scan farm's cache stands
// on: it answers a window from layout.Fingerprint, a key that ignores
// translation and shape order, so the raster and every feature after it
// must ignore them too.
//
// Two detectors are fitted once on the small suite's first benchmark:
// the zoo's CNN-biased, which a scan scores through shared feature tiles
// and first-layer sums, and AdaBoost, which it scores clip by clip
// through Score. Both flag every window they score, so a
// scan's findings carry every score. Each relation runs them over two
// chips: a generated one and one of a repeated cell, which a scan
// answers mostly from the cache. Equal means equal Float64bits.
//
// A relation that fails is a finding: mend the code, or write down why
// the relation cannot hold and narrow it. Never delete one.
package relations

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/golitho/hsd"
	"github.com/golitho/hsd/internal/cli"
	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/features"
	"github.com/golitho/hsd/internal/gdsii"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/iccad"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/scanfarm"
	"github.com/golitho/hsd/internal/serve"
)

// chipEdge is each chip's edge: 16 x 16 windows of the zoo's geometry.
const chipEdge = 8192

// everyWindow is a detector whose threshold is below every score, so a
// scan flags, and reports the score of, every window it scores. The
// threshold is finite, since serve writes it into its JSON.
type everyWindow struct{ core.Detector }

func (everyWindow) Threshold() float64 { return -math.MaxFloat64 }

type namedDetector struct {
	name string
	det  core.Detector
}

type namedChip struct {
	name string
	chip *layout.Layout
}

var fx struct {
	once     sync.Once
	err      error
	clipNM   int
	coreFrac float64
	dets     []namedDetector
	chips    []namedChip
}

// fixture fits the two detectors and builds the two chips, once.
func fixture(t *testing.T) {
	t.Helper()
	fx.once.Do(func() { fx.err = build() })
	if fx.err != nil {
		t.Fatal(fx.err)
	}
}

func build() error {
	suite, err := hsd.GenerateSuite(hsd.SmallSuiteConfig(1))
	if err != nil {
		return err
	}
	bench := &suite.Benchmarks[0]
	fx.clipNM, fx.coreFrac = suite.Config.ClipNM, suite.Config.CoreFrac
	for _, name := range []string{"CNN-biased", "AdaBoost"} {
		spec, err := cli.Spec(1, name)
		if err != nil {
			return err
		}
		det, _, err := cli.Train(spec, bench, nil)
		if err != nil {
			return err
		}
		if nd, ok := det.(*core.NeuralDetector); ok {
			// Not wrapped: the farm takes the tiled path for a
			// *core.NeuralDetector only. Its scores are probabilities.
			nd.Thr = math.SmallestNonzeroFloat64
		} else {
			det = everyWindow{det}
		}
		fx.dets = append(fx.dets, namedDetector{name, det})
	}
	gen, err := iccad.GenerateChip(7, chipEdge, iccad.DefaultStyle())
	if err != nil {
		return err
	}
	// The marks go on the pixel grid of every window: windows step by
	// the core edge from the chip's Min corner.
	at := gen.Bounds().Min.Add(geom.Pt(2048+40*8, 2048+24*8))
	for _, r := range pixelMarks(at) {
		if err := gen.AddRect(r); err != nil {
			return err
		}
	}
	cells := layout.New("cells")
	for i := 0; i < chipEdge/1024; i++ {
		for j := 0; j < chipEdge/1024; j++ {
			off := geom.Pt(i*1024, j*1024)
			for _, r := range append(cell(), pixelMarks(geom.Pt(600, 400))...) {
				if err := cells.AddRect(r.Translate(off)); err != nil {
					return err
				}
			}
		}
	}
	// A mark of its own size in every other band between window rows,
	// each a column pair right of the last. Rows past the first few
	// repeat earlier windows except where a mark lies, so row 2k's last
	// miss is one column left of row 2k+1's first: a worker that carried
	// one shard's conv1 sums into the next would copy them there.
	for k := 2; k <= 6; k++ {
		x, y := 256+(2*k+1)*512+100, 256+(2*k-1)*512+100
		if err := cells.AddRect(geom.R(x, y, x+20+k, y+30)); err != nil {
			return err
		}
	}
	fx.chips = []namedChip{{"generated", gen}, {"cells", cells}}
	return nil
}

// cell is a standard cell with its power rail: the rails of neighbouring
// cells abut, and the cell's Min corner is the chip's.
func cell() []geom.Rect {
	return []geom.Rect{
		geom.R(0, 0, 1024, 48),
		geom.R(100, 100, 400, 160),
		geom.R(100, 300, 400, 360),
		geom.R(603, 100, 661, 900),
		geom.R(100, 601, 900, 659),
	}
}

// pixelMarks are the shapes whose raster an order-dependent sum would
// change, drawn from p, which must lie on the 8 nm pixel grid: three
// shapes abutting inside one pixel (x 0-2, 2-5 and 5-6), whose fractions
// a 10 nm pitch sums to 0.6 in one order and 0.6000000000000001 in
// another; and a stack of four overlapping rectangles on odd
// coordinates, whose edge pixels sum partial fractions past the clamp
// at 1.
func pixelMarks(p geom.Point) []geom.Rect {
	out := []geom.Rect{
		geom.R(0, 1, 2, 7), geom.R(2, 1, 5, 7), geom.R(5, 1, 6, 7),
		geom.R(19, 13, 61, 55), geom.R(19, 13, 61, 55), geom.R(21, 10, 63, 52), geom.R(17, 15, 57, 59),
	}
	for i := range out {
		out[i] = out[i].Translate(p)
	}
	return out
}

// farmConfig is the scan every relation starts from: the suite's
// windows, two workers, two rows a shard and the cache on.
func farmConfig() scanfarm.Config {
	return scanfarm.Config{
		ClipNM: fx.clipNM, CoreFrac: fx.coreFrac, SkipEmpty: true,
		Workers: 2, ShardRows: 2, CacheSize: 4096,
	}
}

// scan runs the farm and fails on anything but a whole, clean run.
func scan(t *testing.T, chip *layout.Layout, det core.Detector, cfg scanfarm.Config) scanfarm.Result {
	t.Helper()
	res, err := scanfarm.Run(context.Background(), chip, det, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted || len(res.Quarantined) > 0 || res.Completed != res.Shards {
		t.Fatalf("scan: %d of %d shards, %d quarantined, interrupted %v",
			res.Completed, res.Shards, len(res.Quarantined), res.Interrupted)
	}
	// Every window of a chip this dense holds geometry, bar the last
	// row and column's overhang.
	if len(res.Findings) < res.Windows/2 {
		t.Fatalf("scan: %d findings of %d windows: the fixture is degenerate", len(res.Findings), res.Windows)
	}
	return res
}

// sameFindings fails unless got is want with every centre moved by d,
// score bits equal.
func sameFindings(t *testing.T, what string, got, want []core.Finding, d geom.Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d findings, want %d", what, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Center != w.Center.Add(d) || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			t.Fatalf("%s: finding %d is %v %v, want %v %v", what, i, g.Center, g.Score, w.Center.Add(d), w.Score)
		}
	}
}

// eachPair runs f for every detector on every chip.
func eachPair(t *testing.T, f func(t *testing.T, det core.Detector, chip *layout.Layout)) {
	fixture(t)
	for _, d := range fx.dets {
		for _, c := range fx.chips {
			t.Run(d.name+"/"+c.name, func(t *testing.T) { f(t, d.det, c.chip) })
		}
	}
}

// rebuild is a new layout of shapes, inserted in their order.
func rebuild(t *testing.T, name string, shapes []geom.Rect) *layout.Layout {
	t.Helper()
	l := layout.New(name)
	for _, r := range shapes {
		if err := l.AddRect(r); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

// TestTranslationMovesFindings: the chip moved by +k and -k core edges
// (the -k chip reaches negative coordinates) gives the findings moved by
// as much, every score's bits equal. Each run keys windows straight from
// the spatial index (FingerprintAt), answers repeats from each worker's
// table, scores misses through the tile memo and the shared conv1
// columns (CNN-biased) and journals its shards; the journal then resumes
// to the same findings without scanning a window.
func TestTranslationMovesFindings(t *testing.T) {
	eachPair(t, func(t *testing.T, det core.Detector, chip *layout.Layout) {
		step := scanfarm.NewPlan(chip.Bounds(), farmConfig()).CoreNM()
		var base []core.Finding
		for _, k := range []int{0, 3, -3} {
			d := geom.Pt(k*step, 2*k*step)
			moved := chip
			if k != 0 {
				shapes := chip.Shapes()
				for i := range shapes {
					shapes[i] = shapes[i].Translate(d)
				}
				moved = rebuild(t, chip.Name, shapes)
			}
			if k < 0 && moved.Bounds().Min.X >= 0 {
				t.Fatalf("the -k chip's bounds %v do not reach negative coordinates", moved.Bounds())
			}
			cfg := farmConfig()
			meta := cfg.Meta(moved, det.Name())
			path := filepath.Join(t.TempDir(), "scan.journal")
			j, err := scanfarm.CreateJournal(path, meta)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Journal = j
			res := scan(t, moved, det, cfg)
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if k == 0 {
				base = res.Findings
				continue
			}
			what := fmt.Sprintf("moved by %v", d)
			sameFindings(t, what, res.Findings, base, d)

			j, done, err := scanfarm.ResumeJournal(path, meta)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Journal, cfg.Completed = j, done
			again := scan(t, moved, det, cfg)
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if again.Scanned != 0 {
				t.Fatalf("%s: the resumed scan scanned %d windows", what, again.Scanned)
			}
			sameFindings(t, what+", resumed", again.Findings, base, d)
		}
	})
}

// TestShardRowsAndCacheKeepFindings: one, two or four rows a shard, and
// the cache off or on, give the same findings. Shard rows bound the tile
// memo and the conv1 sums a miss shares; the cache decides which windows
// miss at all, and so which windows a tile is computed from. The runs at
// one and four rows have one worker, which takes every shard after the
// one before it, so that what a worker keeps from shard to shard shows.
func TestShardRowsAndCacheKeepFindings(t *testing.T) {
	eachPair(t, func(t *testing.T, det core.Detector, chip *layout.Layout) {
		base := scan(t, chip, det, farmConfig())
		for _, rows := range []int{1, 4} {
			cfg := farmConfig()
			cfg.ShardRows, cfg.Workers = rows, 1
			sameFindings(t, fmt.Sprintf("ShardRows %d", rows), scan(t, chip, det, cfg).Findings, base.Findings, geom.Point{})
		}
		cfg := farmConfig()
		cfg.CacheSize = 0
		off := scan(t, chip, det, cfg)
		sameFindings(t, "cache off", off.Findings, base.Findings, geom.Point{})
		if chip.Name == "cells" && base.Cache.Hits < int64(base.Windows/2) {
			t.Fatalf("the cached scan answered %d of %d windows from the cache", base.Cache.Hits, base.Windows)
		}
	})
}

// TestShuffledInsertionKeepsFindings: the chip's shapes inserted in a
// shuffled order give the same findings, so every clip holds its shapes
// in another order. Both chips carry pixelMarks: three shapes abutting
// inside one pixel and a stack that saturates pixels at the clamp.
func TestShuffledInsertionKeepsFindings(t *testing.T) {
	eachPair(t, func(t *testing.T, det core.Detector, chip *layout.Layout) {
		base := scan(t, chip, det, farmConfig())
		shapes := chip.Shapes()
		rand.New(rand.NewSource(68)).Shuffle(len(shapes), func(i, j int) { shapes[i], shapes[j] = shapes[j], shapes[i] })
		shuffled := rebuild(t, chip.Name, shapes)
		sameFindings(t, "shuffled", scan(t, shuffled, det, farmConfig()).Findings, base.Findings, geom.Point{})
	})
}

// TestGDSIIRoundTripKeepsFindings: the chip written as GLT, read back,
// written as GDSII, read back and written and read as GLT again gives
// the same findings.
func TestGDSIIRoundTripKeepsFindings(t *testing.T) {
	eachPair(t, func(t *testing.T, det core.Detector, chip *layout.Layout) {
		base := scan(t, chip, det, farmConfig())
		var glt, gds, glt2 bytes.Buffer
		if err := layout.Write(&glt, chip); err != nil {
			t.Fatal(err)
		}
		l, err := layout.Read(&glt)
		if err != nil {
			t.Fatal(err)
		}
		if err := gdsii.Write(&gds, l); err != nil {
			t.Fatal(err)
		}
		if l, err = gdsii.Read(&gds); err != nil {
			t.Fatal(err)
		}
		if err := layout.Write(&glt2, l); err != nil {
			t.Fatal(err)
		}
		if l, err = layout.Read(&glt2); err != nil {
			t.Fatal(err)
		}
		sameFindings(t, "GLT -> GDSII -> GLT", scan(t, l, det, farmConfig()).Findings, base.Findings, geom.Point{})
	})
}

// TestServeAgreesWithFarm: a finding whose shapes' bounding box is
// centred on its window is what serve cuts from a posted clip, since it
// centres the window on that box. Posted to an in-process server with
// the same detector as its primary, such a window gets the farm's score
// bits on the /score miss and again on the hit.
func TestServeAgreesWithFarm(t *testing.T) {
	eachPair(t, func(t *testing.T, det core.Detector, chip *layout.Layout) {
		base := scan(t, chip, det, farmConfig())
		srv, err := serve.NewServer(serve.Options{Primary: det, ClipNM: fx.clipNM, CoreFrac: fx.coreFrac})
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		posted := 0
		for _, f := range base.Findings {
			clip, err := chip.ClipAt(f.Center, fx.clipNM, fx.coreFrac)
			if err != nil {
				t.Fatal(err)
			}
			var box geom.Rect
			for _, s := range clip.Shapes {
				box = box.Union(s)
			}
			if box.Center() != f.Center {
				continue
			}
			var body bytes.Buffer
			if err := layout.Write(&body, rebuild(t, "clip", clip.Shapes)); err != nil {
				t.Fatal(err)
			}
			for _, pass := range []string{"miss", "hit"} {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/score", bytes.NewReader(body.Bytes())))
				if rec.Code != http.StatusOK {
					t.Fatalf("window at %v, %s: status %d: %s", f.Center, pass, rec.Code, rec.Body)
				}
				var resp serve.ScoreResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatal(err)
				}
				if resp.Degraded || math.Float64bits(resp.Score) != math.Float64bits(f.Score) {
					t.Fatalf("window at %v, %s: serve scored %v (degraded %v), the farm %v",
						f.Center, pass, resp.Score, resp.Degraded, f.Score)
				}
			}
			if posted++; posted == 8 {
				break
			}
		}
		if posted == 0 {
			t.Fatal("no finding's shapes are centred on its window")
		}
		t.Logf("%d windows posted", posted)
		var page strings.Builder
		if err := srv.Metrics().WritePrometheus(&page); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("\nhotspot_score_cache_hits_total %d\n", posted); !strings.Contains(page.String(), want) {
			t.Fatalf("the second posts were not all cache hits: /metrics lacks %q", strings.TrimSpace(want))
		}
	})
}

// TestSplitRectangleKeepsFeatures: a rectangle split into two abutting
// ones, across a pixel, leaves the Density, CCAS and DCT features and
// the CNN's score bit for bit, while the clip's fingerprint changes: the
// equality comes from the raster, not from the cache key. GeomStats
// counts shapes and measures widths and gaps per shape, so a split moves
// it, and this relation does not cover the shallow detectors that read
// it (AdaBoost among them).
func TestSplitRectangleKeepsFeatures(t *testing.T) {
	fixture(t)
	var cnn core.Detector
	for _, d := range fx.dets {
		if _, ok := d.det.(*core.NeuralDetector); ok {
			cnn = d.det
		}
	}
	exs := []features.Extractor{
		&features.Density{Grid: 32}, &features.CCAS{Rings: 8, Sectors: 12}, &features.DCT{Blocks: 16, Coefs: 16},
	}
	for _, c := range fx.chips {
		plan := scanfarm.NewPlan(c.chip.Bounds(), farmConfig())
		split := 0
		for row := 0; row < plan.Rows; row += 3 {
			for col := 0; col < plan.Cols; col += 3 {
				clip, err := c.chip.ClipAt(plan.Center(col, row), plan.ClipNM, plan.CoreFrac)
				if err != nil {
					t.Fatal(err)
				}
				clip = clip.Translate()
				for i, s := range clip.Shapes {
					// Across the widest extent, three nm off the middle,
					// so that the cut is inside a pixel wherever it falls.
					var a, b geom.Rect
					switch {
					case s.Dx() >= s.Dy() && s.Dx() > 6:
						x := s.Min.X + s.Dx()/2 + 3
						if x%8 == 0 {
							x++
						}
						a, b = geom.R(s.Min.X, s.Min.Y, x, s.Max.Y), geom.R(x, s.Min.Y, s.Max.X, s.Max.Y)
					case s.Dy() > 6:
						y := s.Min.Y + s.Dy()/2 + 3
						if y%8 == 0 {
							y++
						}
						a, b = geom.R(s.Min.X, s.Min.Y, s.Max.X, y), geom.R(s.Min.X, y, s.Max.X, s.Max.Y)
					default:
						continue
					}
					two := clip
					two.Shapes = append(append(append([]geom.Rect{}, clip.Shapes[:i]...), a, b), clip.Shapes[i+1:]...)
					what := fmt.Sprintf("%s window (%d,%d) shape %v split", c.name, col, row, s)
					if two.Fingerprint() == clip.Fingerprint() {
						t.Fatalf("%s: the fingerprint did not change", what)
					}
					for _, ex := range exs {
						want, err := ex.Extract(clip)
						if err != nil {
							t.Fatal(err)
						}
						got, err := ex.Extract(two)
						if err != nil {
							t.Fatal(err)
						}
						for k := range want {
							if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
								t.Fatalf("%s: %s feature %d is %v, want %v", what, ex.Name(), k, got[k], want[k])
							}
						}
					}
					want, err := cnn.Score(context.Background(), clip)
					if err != nil {
						t.Fatal(err)
					}
					got, err := cnn.Score(context.Background(), two)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: CNN score %v, want %v", what, got, want)
					}
					split++
					break // one shape a window
				}
			}
		}
		if split < 8 {
			t.Fatalf("%s: only %d windows had a shape to split", c.name, split)
		}
		t.Logf("%s: %d windows split", c.name, split)
	}
}
