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
	// split builds a test split of n clips, clip i a hotspot if hot(i).
	split := func(n int, hot func(int) bool) *hsd.Benchmark {
		b := &hsd.Benchmark{Name: "B"}
		for i := 0; i < n; i++ {
			b.Test.Samples = append(b.Test.Samples, sample(i, hot(i)))
		}
		return b
	}
	for _, tc := range []struct {
		name       string
		bench      *hsd.Benchmark
		hot, cold  int
		wantPrefix []int // the first sample tags, in order
	}{
		{"empty", split(0, nil), 0, 0, nil},
		// Hot at 0 and 3: the hots run out and the colds go on.
		{"small", split(6, func(i int) bool { return i%3 == 0 }), 2, 4, []int{0, 1, 3, 2, 4, 5}},
		// 34 hot, 66 cold: interleaved up to the 64-clip cap.
		{"capped", split(100, func(i int) bool { return i%3 == 0 }), 32, 32, []int{0, 1, 3, 2, 6, 4}},
		// 2 hot, 98 cold: every hotspot, then colds to the cap.
		{"few-hot", split(100, func(i int) bool { return i == 0 || i == 50 }), 2, 62, []int{0, 1, 50, 2, 3}},
	} {
		got := GoldenSet(tc.bench)
		var tags []int
		hot, cold := 0, 0
		for _, s := range got {
			tag := s.Clip.Window.Min.X
			tags = append(tags, tag)
			if s.Hotspot != tc.bench.Test.Samples[tag].Hotspot {
				t.Errorf("%s: clip %d lost its label", tc.name, tag)
			}
			if s.Hotspot {
				hot++
			} else {
				cold++
			}
		}
		if hot != tc.hot || cold != tc.cold {
			t.Errorf("%s: %d hot and %d cold clips, want %d and %d", tc.name, hot, cold, tc.hot, tc.cold)
		}
		if len(tags) < len(tc.wantPrefix) || !reflect.DeepEqual(tags[:len(tc.wantPrefix)], tc.wantPrefix) {
			t.Errorf("%s: GoldenSet = %v, want it to start %v", tc.name, tags, tc.wantPrefix)
		}
	}
}
