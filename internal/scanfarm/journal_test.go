package scanfarm

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/framelog"
	"github.com/golitho/hsd/internal/geom"
)

func testMeta() Meta {
	return Meta{
		Chip:      "chip",
		Shapes:    42,
		Bounds:    geom.R(0, 0, 8192, 8192),
		ClipNM:    1024,
		CoreFrac:  0.5,
		StrideNM:  512,
		ShardRows: 2,
		NumShards: 8,
		SkipEmpty: true,
		Detector:  "density",
	}
}

func testRecords() []ShardRecord {
	return []ShardRecord{
		{ShardID: 0, State: ShardDone, Attempts: 1, Findings: []core.Finding{
			{Center: geom.Pt(256, 256), Score: 0.91},
			{Center: geom.Pt(768, 256), Score: 0.77},
		}},
		{ShardID: 3, State: ShardQuarantined, Attempts: 3, Err: "detector panic: poison window"},
		{ShardID: 1, State: ShardDone, Attempts: 2, Findings: []core.Finding{
			{Center: geom.Pt(256, 1280), Score: 0.5},
		}},
		{ShardID: 2, State: ShardDone, Attempts: 1},
	}
}

func writeTestJournal(t *testing.T) (string, Meta, []ShardRecord) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scan.journal")
	meta := testMeta()
	j, err := CreateJournal(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path, meta, recs
}

// loadJournal reads a journal without modifying it.
func loadJournal(t *testing.T, path string) (Meta, map[int]ShardRecord) {
	t.Helper()
	meta, recs, _, err := framelog.Load[Meta, ShardRecord](path, journalFormat)
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[int]ShardRecord, len(recs))
	for _, r := range recs {
		byID[r.ShardID] = r
	}
	return meta, byID
}

func checkJournal(t *testing.T, path string, meta Meta, recs []ShardRecord) {
	t.Helper()
	gotMeta, got := loadJournal(t, path)
	if gotMeta != meta {
		t.Fatalf("meta %+v, want %+v", gotMeta, meta)
	}
	if len(got) != len(recs) {
		t.Fatalf("loaded %d records, want %d", len(got), len(recs))
	}
	for _, want := range recs {
		if !reflect.DeepEqual(got[want.ShardID], want) {
			t.Fatalf("record %d: %+v, want %+v", want.ShardID, got[want.ShardID], want)
		}
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path, meta, recs := writeTestJournal(t)
	checkJournal(t, path, meta, recs)
}

// TestJournalGolden: a journal written at the parent commit (before
// framelog) loads to the values it was written from.
func TestJournalGolden(t *testing.T) {
	checkJournal(t, "testdata/golden.journal", testMeta(), testRecords())
}

// TestJournalBitFlipRejected proves the journal is wired through
// framelog's integrity check (whose exhaustive suite lives there): a
// flipped payload byte costs exactly the record it is in, and the
// resumed journal says so.
func TestJournalBitFlipRejected(t *testing.T) {
	path, meta, recs := writeTestJournal(t)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full[len(full)-1] ^= 0xFF
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	j, got, err := ResumeJournal(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(got) != len(recs)-1 {
		t.Fatalf("kept %d records, want %d", len(got), len(recs)-1)
	}
	if tail := j.Tail(); tail.Discarded == 0 || tail.Offset+tail.Discarded != int64(len(full)) {
		t.Fatalf("corrupt record dropped silently: tail %+v of %d bytes", tail, len(full))
	}
}

// TestResumeJournalTornAppend: resuming over a torn tail truncates it
// so appended records form a valid journal again.
func TestResumeJournalTornAppend(t *testing.T) {
	path, meta, recs := writeTestJournal(t)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear mid-way through the last record.
	if err := os.WriteFile(path, full[:len(full)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	j, completed, err := ResumeJournal(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	if len(completed) != len(recs)-1 {
		t.Fatalf("resumed with %d records, want %d", len(completed), len(recs)-1)
	}
	extra := ShardRecord{ShardID: 7, State: ShardDone, Attempts: 1,
		Findings: []core.Finding{{Center: geom.Pt(99, 99), Score: 1}}}
	if err := j.Append(extra); err != nil {
		t.Fatal(err)
	}
	j.Close()

	_, got := loadJournal(t, path)
	if len(got) != len(recs) {
		t.Fatalf("after torn append: %d records, want %d", len(got), len(recs))
	}
	if !reflect.DeepEqual(got[7], extra) {
		t.Fatalf("appended record %+v, want %+v", got[7], extra)
	}
}
