package datengine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/golitho/hsd/internal/framelog"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
)

// testClip builds a small deterministic clip whose geometry varies
// with i, so distinct i yield distinct fingerprints.
func testClip(i int) layout.Clip {
	w := geom.R(0, 0, 512, 512)
	return layout.Clip{
		Window: w,
		Core:   geom.R(128, 128, 384, 384),
		Shapes: []geom.Rect{
			geom.R(10+i, 20, 60+i, 52),
			geom.R(100, 40+2*i, 132, 200),
		},
	}
}

func testRecords(n int) []Record {
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		clip := testClip(i).Translate()
		recs = append(recs, Record{
			Kind: RecCandidate, FP: clip.Fingerprint(), Clip: clip,
			Score: 0.4 + float64(i)/100, Stage: "scan", Source: "low-conf",
		})
	}
	return recs
}

// goldenRecords covers every record kind; testdata/golden.wal holds
// them as written at the parent commit (before framelog).
func goldenRecords() []Record {
	recs := testRecords(3)
	return append(recs,
		Record{Kind: RecBatch, BatchID: 0, FPs: []layout.Fingerprint{recs[0].FP, recs[2].FP}},
		Record{Kind: RecLabel, BatchID: 0, FP: recs[0].FP, Hotspot: true},
		Record{Kind: RecQuarantine, BatchID: 0, FP: recs[2].FP, Attempts: 3, Err: "oracle panic: chaos"},
		Record{Kind: RecShipped, BatchID: 0, Outcome: OutcomeShipped, ModelPath: "m.gob"},
	)
}

// loadWAL reads a WAL without modifying it.
func loadWAL(t *testing.T, path string) (Meta, []Record) {
	t.Helper()
	meta, recs, _, err := framelog.Load[Meta, Record](path, walFormat)
	if err != nil {
		t.Fatal(err)
	}
	return meta, recs
}

func checkWAL(t *testing.T, path string, meta Meta, recs []Record) {
	t.Helper()
	gotMeta, got := loadWAL(t, path)
	if gotMeta != meta {
		t.Fatalf("meta = %+v, want %+v", gotMeta, meta)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("records = %+v, want %+v", got, recs)
	}
}

func writeTestWAL(t *testing.T, meta Meta, recs []Record) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "learn.wal")
	w, err := CreateWAL(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestWALRoundTrip(t *testing.T) {
	meta := Meta{Detector: "cnn"}
	checkWAL(t, writeTestWAL(t, meta, goldenRecords()), meta, goldenRecords())
}

func TestWALGolden(t *testing.T) {
	checkWAL(t, "testdata/golden.wal", Meta{Detector: "cnn"}, goldenRecords())
}

func TestWALMetaMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "learn.wal")
	w, err := CreateWAL(path, Meta{Detector: "cnn"})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, _, err := ResumeWAL(path, Meta{Detector: "mlp"}); !errors.Is(err, framelog.ErrMetaMismatch) {
		t.Fatalf("resume with mismatched detector: err = %v, want ErrMetaMismatch", err)
	}
}

// TestWALBitFlip proves the engine's WAL is wired through framelog's
// integrity check (whose exhaustive suite lives there): a flipped bit
// costs exactly the record it is in, and reopening says so through Logf.
func TestWALBitFlip(t *testing.T) {
	dir := t.TempDir()
	cfg := fastCfg(dir)
	walPath := filepath.Join(dir, "learn.wal")
	e, err := Open(walPath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustIngest(t, e, 3)
	e.Close()
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	full[len(full)-1] ^= 0x40
	if err := os.WriteFile(walPath, full, 0o644); err != nil {
		t.Fatal(err)
	}

	var logged []string
	cfg.Logf = func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	e2, err := Open(walPath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if n := e2.PendingCandidates(); n != 2 {
		t.Fatalf("bit-flipped tail: %d candidates survived, want 2", n)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "discarded") || !strings.Contains(logged[0], "after offset") {
		t.Fatalf("discarded tail not reported: %q", logged)
	}
}

func TestReplayState(t *testing.T) {
	recs := testRecords(4)
	fps := []layout.Fingerprint{recs[0].FP, recs[1].FP}
	all := append(append([]Record(nil), recs...),
		recs[1], // duplicate candidate: must not double-count
		Record{Kind: RecBatch, BatchID: 0, FPs: fps},
		Record{Kind: RecLabel, BatchID: 0, FP: fps[0], Hotspot: true},
	)
	s := Replay(all)
	if len(s.Candidates) != 4 {
		t.Fatalf("candidates = %d, want 4", len(s.Candidates))
	}
	if s.Pending == nil || s.Pending.ID != 0 {
		t.Fatalf("pending batch missing: %+v", s.Pending)
	}
	if got := s.Pending.Remaining(); len(got) != 1 || got[0] != fps[1] {
		t.Fatalf("remaining = %v, want [%x]", got, fps[1][:4])
	}
	if avail := s.Available(); len(avail) != 2 {
		t.Fatalf("available = %d, want 2 (two consumed)", len(avail))
	}

	// Terminal record clears the pending batch and counts the outcome.
	all = append(all,
		Record{Kind: RecQuarantine, BatchID: 0, FP: fps[1], Attempts: 3, Err: "x"},
		Record{Kind: RecShipped, BatchID: 0, Outcome: OutcomeShipped, ModelPath: "m.gob"},
	)
	s = Replay(all)
	if s.Pending != nil {
		t.Fatalf("pending survived shipped record")
	}
	if s.Shipped != 1 || s.LastModel != "m.gob" {
		t.Fatalf("shipped = %d lastModel = %q", s.Shipped, s.LastModel)
	}
	if s.NextBatchID != 1 {
		t.Fatalf("next batch = %d, want 1", s.NextBatchID)
	}
}

// TestAvailableOrderIndependent: the selection input must be identical
// no matter what order candidates arrived in.
func TestAvailableOrderIndependent(t *testing.T) {
	recs := testRecords(6)
	perm := []Record{recs[3], recs[0], recs[5], recs[1], recs[4], recs[2]}
	a := Replay(recs).Available()
	b := Replay(perm).Available()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].FP != b[i].FP {
			t.Fatalf("order diverges at %d", i)
		}
	}
}
