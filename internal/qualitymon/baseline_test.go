package qualitymon

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io/fs"
	"os"
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

// TestBaselineGolden: the golden sidecar loads to the baseline it was
// saved from and re-encodes to its own bytes. The two .v1 files are
// sidecars in the gob format the codec replaced, golden.qb's (itself
// first written before framelog existed) and baseline_router.qb's, a
// four-series baseline (one blended series plus one per cascade stage)
// that a routed detector once shipped; each holds the value of its
// replacement, floats by their bits.
func TestBaselineGolden(t *testing.T) {
	checkBaseline(t, "testdata/golden.qb")
	for golden, v1 := range map[string]string{
		"testdata/golden.qb":          "testdata/golden.qb.v1",
		"testdata/baseline_router.qb": "testdata/baseline_router.v1",
	} {
		data, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		b, err := readBaseline(data)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(framed(*b), data) {
			t.Errorf("%s does not re-encode to its own bytes", golden)
		}
		if old := gobV1(t, v1); !reflect.DeepEqual(old, *b) || !bytes.Equal(framed(old), data) {
			t.Errorf("%s holds another baseline than %s", v1, golden)
		}
	}
}

// gobV1 is the baseline a sidecar of the gob format, the one before the
// codec, holds. Gob matches fields by name, so Baseline need not carry
// the Version field it dropped.
func gobV1(t *testing.T, path string) Baseline {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := framelog.ReadFrame(bytes.NewReader(data), "HSDQBv1\n")
	if err != nil {
		t.Fatal(err)
	}
	var b Baseline
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBaselineEntryOrderIndependent(t *testing.T) {
	scores := []float64{0.9, 0.1, 0.5, 0.3, 0.7}
	rev := []float64{0.7, 0.3, 0.5, 0.1, 0.9}
	a := NewBaselineEntry("d", "s", scores, 8)
	b := NewBaselineEntry("d", "s", rev, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("entry depends on score order:\n%+v\n%+v", a, b)
	}
}

// saveBytes is the sidecar SaveBaselineFile writes for b.
func saveBytes(t *testing.T, b *Baseline) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.qb")
	if err := SaveBaselineFile(path, b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestBaselineCorruptionDetected proves the sidecar is wired through
// framelog's integrity check (whose exhaustive suite lives there).
func TestBaselineCorruptionDetected(t *testing.T) {
	raw := saveBytes(t, testBaseline())
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)-1] ^= 0x40
	path := filepath.Join(t.TempDir(), "model.qb")
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"bit flip", flipped, framelog.ErrChecksum},
		{"torn write", raw[:len(raw)/2], framelog.ErrTorn},
		{"empty", nil, framelog.ErrTorn},
		{"wrong magic", append([]byte("NOTQB!!\n"), raw[8:]...), framelog.ErrBadMagic},
		{"missing", nil, fs.ErrNotExist},
	} {
		os.Remove(path)
		if tc.want != fs.ErrNotExist {
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := LoadBaselineFile(path); !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestBaselineSaveDeterministic(t *testing.T) {
	// Reversed entry order must serialize identically (entries are
	// sorted on save).
	rev := testBaseline()
	rev.Entries[0], rev.Entries[1] = rev.Entries[1], rev.Entries[0]
	if !bytes.Equal(saveBytes(t, testBaseline()), saveBytes(t, rev)) {
		t.Fatalf("baseline bytes depend on entry order")
	}
}

func TestBaselineValidates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.qb")
	bad := &Baseline{Entries: []BaselineEntry{{
		Detector: "d", Stage: "s",
		Edges:  []float64{0.5, 0.25}, // unsorted
		Counts: []int64{1, 1, 1},
	}}}
	if err := SaveBaselineFile(path, bad); err == nil {
		t.Fatalf("unsorted edges accepted")
	}
	bad = &Baseline{Entries: []BaselineEntry{{
		Detector: "d", Stage: "s",
		Edges:  []float64{0.5},
		Counts: []int64{1}, // want len(edges)+1
	}}}
	if err := SaveBaselineFile(path, bad); err == nil {
		t.Fatalf("count/edge length mismatch accepted")
	}
	// The magic is the format's version: a sidecar of the previous one
	// is refused at it.
	if _, err := LoadBaselineFile("testdata/golden.qb.v1"); !errors.Is(err, framelog.ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

// FuzzLoadBaseline throws arbitrary payloads at the baseline loader, the
// file every /admin/reload reads next to the model. It frames its input
// itself so the engine's mutations reach the decoder and validate, not
// just the checksum, and reads from memory so the engine is not held to
// the disk's pace. Accepted baselines must re-save and re-load.
func FuzzLoadBaseline(f *testing.F) {
	golden, err := baselineFormat.Load("testdata/golden.qb")
	if err != nil {
		f.Fatal(err)
	}
	valid := payloadOf(golden)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Add(payloadOf(Baseline{}))
	f.Add(payloadOf(Baseline{Entries: []BaselineEntry{{
		Detector: "d", Stage: "s", Edges: []float64{0.5, 0.25}, Counts: []int64{1, 1, 1}}}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		b, err := readBaseline(frame(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := baselineFormat.Write(&out, *b); err != nil {
			t.Fatalf("accepted baseline fails to re-save: %v", err)
		}
		again, err := readBaseline(out.Bytes())
		if err != nil {
			t.Fatalf("re-saved baseline fails to re-load: %v", err)
		}
		if len(again.Entries) != len(b.Entries) {
			t.Fatalf("round trip changed the baseline: %d/%d entries", len(again.Entries), len(b.Entries))
		}
	})
}

// readBaseline is LoadBaselineFile on bytes instead of a path.
func readBaseline(data []byte) (*Baseline, error) {
	b, err := baselineFormat.Read(bytes.NewReader(data))
	if err == nil {
		err = b.validate()
	}
	return &b, err
}

// frame wraps payload in a CRC-consistent baseline frame.
func frame(payload []byte) []byte {
	var buf bytes.Buffer
	_ = framelog.WriteFrame(&buf, baselineFormat.Magic, payload) // a bytes.Buffer write cannot fail
	return buf.Bytes()
}

// framed is the frame baselineFormat writes for b.
func framed(b Baseline) []byte {
	var buf bytes.Buffer
	if err := baselineFormat.Write(&buf, b); err != nil {
		panic(err) // a bytes.Buffer write cannot fail
	}
	return buf.Bytes()
}

// payloadOf is the payload of the frame baselineFormat writes for b.
func payloadOf(b Baseline) []byte {
	payload, err := framelog.ReadFrame(bytes.NewReader(framed(b)), baselineFormat.Magic)
	if err != nil {
		panic(err)
	}
	return payload
}

func TestSidecarPath(t *testing.T) {
	if got := SidecarPath("models/mlp.gob"); got != "models/mlp.gob.qb" {
		t.Fatalf("SidecarPath = %q", got)
	}
}
