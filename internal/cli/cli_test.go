package cli

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	hsd "github.com/golitho/hsd"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/iccad"
	"github.com/golitho/hsd/internal/layout"
)

func TestSpec(t *testing.T) {
	for _, name := range []string{"CNN-biased", "cnn-BIASED", "AdaBoost"} {
		spec, err := Spec(1, name)
		if err != nil {
			t.Fatalf("Spec(%q): %v", name, err)
		}
		if !strings.EqualFold(spec.Name, name) || spec.New == nil {
			t.Fatalf("Spec(%q) = %+v", name, spec)
		}
	}
	_, err := Spec(1, "nope")
	if err == nil {
		t.Fatal(`Spec("nope") accepted`)
	}
	if !strings.Contains(err.Error(), `"nope" not in zoo (have: `) {
		t.Fatalf("miss error = %q", err)
	}
	for _, s := range hsd.SurveyZoo(1) {
		if !strings.Contains(err.Error(), s.Name) {
			t.Errorf("miss error %q does not list %s", err, s.Name)
		}
	}
}

// sample tags a clip with its index so a test can tell which samples a
// selection kept.
func sample(i int, hot bool) iccad.Sample {
	return iccad.Sample{Clip: layout.Clip{Window: geom.R(i, 0, i+1, 1)}, Hotspot: hot}
}

func TestLoadBenchmark(t *testing.T) {
	suite := &hsd.Suite{Benchmarks: []hsd.Benchmark{
		{Name: "B1", Train: iccad.Split{Samples: []iccad.Sample{sample(0, true)}}},
		{Name: "B2", Train: iccad.Split{Samples: []iccad.Sample{sample(1, false), sample(2, true)}}},
	}}
	path := filepath.Join(t.TempDir(), "suite.gob")
	if err := hsd.SaveSuiteFile(path, suite); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, want string }{{"", "B1"}, {"B1", "B1"}, {"B2", "B2"}} {
		got, bench, err := LoadBenchmark(path, tc.name)
		if err != nil {
			t.Fatalf("LoadBenchmark(%q): %v", tc.name, err)
		}
		if bench.Name != tc.want || len(got.Benchmarks) != 2 {
			t.Fatalf("LoadBenchmark(%q) picked %s of %d benchmarks, want %s of 2",
				tc.name, bench.Name, len(got.Benchmarks), tc.want)
		}
	}
	if _, _, err := LoadBenchmark(path, "b2"); err == nil || !strings.Contains(err.Error(), `benchmark "b2" not found`) {
		t.Fatalf("unknown benchmark: err = %v", err)
	}
	if _, _, err := LoadBenchmark(filepath.Join(t.TempDir(), "absent.gob"), ""); err == nil {
		t.Fatal("missing suite file accepted")
	}
}

func TestGoldenSet(t *testing.T) {
	// Test split: hot at 0, 3; cold at 1, 2, 4, 5.
	bench := &hsd.Benchmark{Name: "B", Test: iccad.Split{Samples: []iccad.Sample{
		sample(0, true), sample(1, false), sample(2, false),
		sample(3, true), sample(4, false), sample(5, false),
	}}}
	for _, tc := range []struct {
		n    int
		want []int // sample tags, in order
	}{
		{-1, nil},
		{0, nil},
		{1, []int{0}},
		{3, []int{0, 1, 3}},       // hot, cold, hot
		{5, []int{0, 1, 3, 2, 4}}, // hots run out, colds go on
		{64, []int{0, 1, 3, 2, 4, 5}},
	} {
		got := GoldenSet(bench, tc.n)
		if tc.want == nil {
			if got != nil {
				t.Errorf("GoldenSet(n=%d) = %d clips, want nil", tc.n, len(got))
			}
			continue
		}
		var tags []int
		for _, s := range got {
			tags = append(tags, s.Clip.Window.Min.X)
			if wantHot := s.Clip.Window.Min.X%3 == 0; s.Hotspot != wantHot {
				t.Errorf("GoldenSet(n=%d): clip %d lost its label", tc.n, s.Clip.Window.Min.X)
			}
		}
		if !reflect.DeepEqual(tags, tc.want) {
			t.Errorf("GoldenSet(n=%d) = %v, want %v", tc.n, tags, tc.want)
		}
	}
}
