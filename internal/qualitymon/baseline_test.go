package qualitymon

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/golitho/hsd/internal/framelog"
)

func testBaseline() *Baseline {
	return &Baseline{Entries: []BaselineEntry{
		NewBaselineEntry("MLP", "primary", []float64{0.1, 0.2, 0.2, 0.3, 0.8, 0.9}, 4),
		NewBaselineEntry("SVM", "fallback", []float64{0.4, 0.5, 0.6}, 4),
	}}
}

func checkBaseline(t *testing.T, path string) {
	t.Helper()
	got, err := LoadBaselineFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != baselineVersion {
		t.Fatalf("version = %d, want %d", got.Version, baselineVersion)
	}
	want := testBaseline()
	want.Sort()
	if !reflect.DeepEqual(got.Entries, want.Entries) {
		t.Fatalf("entries mismatch:\ngot  %+v\nwant %+v", got.Entries, want.Entries)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.gob.qb")
	if err := SaveBaselineFile(path, testBaseline()); err != nil {
		t.Fatal(err)
	}
	checkBaseline(t, path)
}

// TestBaselineGolden: a sidecar written at the parent commit (before
// framelog) loads to the baseline it was saved from.
func TestBaselineGolden(t *testing.T) { checkBaseline(t, "testdata/golden.qb") }

func TestBaselineEntryOrderIndependent(t *testing.T) {
	scores := []float64{0.9, 0.1, 0.5, 0.3, 0.7}
	rev := []float64{0.7, 0.3, 0.5, 0.1, 0.9}
	a := NewBaselineEntry("d", "s", scores, 8)
	b := NewBaselineEntry("d", "s", rev, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("entry depends on score order:\n%+v\n%+v", a, b)
	}
}

// TestBaselineCorruptionDetected proves the sidecar is wired through
// framelog's integrity check (whose exhaustive suite lives there).
func TestBaselineCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveBaseline(&buf, testBaseline()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)-1] ^= 0x40
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"bit flip", flipped, framelog.ErrChecksum},
		{"torn write", raw[:len(raw)/2], framelog.ErrTorn},
		{"wrong magic", append([]byte("NOTQB!!\n"), raw[8:]...), framelog.ErrBadMagic},
	} {
		if _, err := LoadBaseline(bytes.NewReader(tc.data)); !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestBaselineSaveDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := SaveBaseline(&a, testBaseline()); err != nil {
		t.Fatal(err)
	}
	// Reversed entry order must serialize identically (entries are
	// sorted on save).
	rev := testBaseline()
	rev.Entries[0], rev.Entries[1] = rev.Entries[1], rev.Entries[0]
	if err := SaveBaseline(&b, rev); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("baseline bytes depend on entry order")
	}
}

func TestBaselineValidates(t *testing.T) {
	bad := &Baseline{Entries: []BaselineEntry{{
		Detector: "d", Stage: "s",
		Edges:  []float64{0.5, 0.25}, // unsorted
		Counts: []int64{1, 1, 1},
	}}}
	var buf bytes.Buffer
	if err := SaveBaseline(&buf, bad); err == nil {
		t.Fatalf("unsorted edges accepted")
	}
	bad = &Baseline{Entries: []BaselineEntry{{
		Detector: "d", Stage: "s",
		Edges:  []float64{0.5},
		Counts: []int64{1}, // want len(edges)+1
	}}}
	buf.Reset()
	if err := SaveBaseline(&buf, bad); err == nil {
		t.Fatalf("count/edge length mismatch accepted")
	}
}

func TestSidecarPath(t *testing.T) {
	if got := SidecarPath("models/mlp.gob"); got != "models/mlp.gob.qb" {
		t.Fatalf("SidecarPath = %q", got)
	}
}
