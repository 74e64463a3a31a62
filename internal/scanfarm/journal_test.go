package scanfarm

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/framelog"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/resilience"
	"github.com/golitho/hsd/internal/telemetry"
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
	meta, recs := testMeta(), testRecords()
	return writeJournal(t, meta, recs), meta, recs
}

// writeJournal journals recs under meta in a fresh file and returns its
// path.
func writeJournal(t *testing.T, meta Meta, recs []ShardRecord) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scan.journal")
	j, err := CreateJournal(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path
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

// TestJournalGolden: the golden journal loads to the values it was
// written from, and journaling its decoded values again gives its bytes.
// golden.journal.v1 is the same journal in the gob format the codec
// replaced (itself first written before framelog existed); it holds the
// same values, floats by their bits.
func TestJournalGolden(t *testing.T) {
	const path = "testdata/golden.journal"
	checkJournal(t, path, testMeta(), testRecords())
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	meta, recs, _, err := framelog.Load[Meta, ShardRecord](path, journalFormat)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := os.ReadFile(writeJournal(t, meta, recs)); !bytes.Equal(again, golden) {
		t.Fatal("the golden journal does not re-encode to its own bytes")
	}
	oldMeta, oldRecs := gobV1Log[Meta, ShardRecord](t, path+".v1", framelog.Format{Header: "HSDSJh1\n", Record: "HSDSJr1\n"})
	if oldMeta != meta || !reflect.DeepEqual(oldRecs, recs) {
		t.Fatal("golden.journal.v1 holds other values than golden.journal")
	}
	if again, _ := os.ReadFile(writeJournal(t, oldMeta, oldRecs)); !bytes.Equal(again, golden) {
		t.Fatal("golden.journal.v1's values do not encode to golden.journal")
	}
}

// gobV1Log reads a log of the gob format the codec replaced: one frame
// under the header magic, then record frames, each payload its own gob
// stream. Gob matches fields by name.
func gobV1Log[M, R any](t *testing.T, path string, format framelog.Format) (M, []R) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(data)
	decode := func(magic string, v any) {
		payload, err := framelog.ReadFrame(r, magic)
		if err == nil {
			err = gob.NewDecoder(bytes.NewReader(payload)).Decode(v)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	var meta M
	decode(format.Header, &meta)
	var recs []R
	for r.Len() > 0 {
		var rec R
		decode(format.Record, &rec)
		recs = append(recs, rec)
	}
	return meta, recs
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

// TestCommitterGroupsByAge drives the committer on a fake clock. The
// run's first group is tried before any wait; records added within
// commitAge of each other land in one Append, made once the oldest is
// commitAge old; and close commits what is pending at once.
func TestCommitterGroupsByAge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scan.journal")
	j, err := CreateJournal(path, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	commits := telemetry.NewRegistry().Counter("scan_journal_commits_total")
	clk := resilience.NewFakeClock(time.Unix(0, 0))
	recs := testRecords()
	c := startCommitter(j, func() { t.Error("an append failed") }, len(recs), clk, commits)
	check := func(when string, groups, records int) {
		t.Helper()
		if _, got := loadJournal(t, path); commits.Value() != float64(groups) || len(got) != records {
			t.Fatalf("%s: %v groups holding %d records, want %d holding %d", when, commits.Value(), len(got), groups, records)
		}
	}

	c.add(recs[0]) // returns once the first group has been tried
	check("first add, the clock never advanced", 1, 1)

	c.add(recs[1])
	c.add(recs[2])
	clk.Advance(commitAge - time.Nanosecond)
	time.Sleep(20 * time.Millisecond) // room for a commit that comes too early
	check("the oldest pending record a nanosecond short of commitAge", 1, 1)
	clk.Advance(time.Nanosecond)
	for deadline := time.Now().Add(10 * time.Second); commits.Value() < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	check("the oldest pending record commitAge old", 2, 3)

	c.add(recs[3])
	if err := c.close(); err != nil {
		t.Fatal(err)
	}
	check("close, the clock not advanced", 3, 4)
}

// FuzzShardRecordPayload: ShardRecord's hand-written encoder writes the
// bytes framelog's reflective codec writes for the same record, and
// they decode back to it. plainRecord is ShardRecord without the
// encoder, so a frame of it is the codec's.
func FuzzShardRecordPayload(f *testing.F) {
	finding := func(x, y int64, score float64) []byte {
		b := binary.LittleEndian.AppendUint64(nil, uint64(x))
		b = binary.LittleEndian.AppendUint64(b, uint64(y))
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(score))
	}
	var odd []byte
	for _, fd := range []struct {
		x, y  int64
		score float64
	}{
		{-1, math.MinInt64, math.NaN()}, {math.MaxInt64, 1 << 40, math.Copysign(0, -1)},
		{0, -1 << 33, 0}, {63, 64, math.Inf(1)}, {-64, -65, 5e-324},
	} {
		odd = append(odd, finding(fd.x, fd.y, fd.score)...)
	}
	for _, rec := range testRecords() {
		var fs []byte
		for _, fd := range rec.Findings {
			fs = append(fs, finding(int64(fd.Center.X), int64(fd.Center.Y), fd.Score)...)
		}
		f.Add(int64(rec.ShardID), uint8(rec.State), int64(rec.Attempts), rec.Err, fs)
	}
	f.Add(int64(-1), uint8(255), int64(math.MinInt64), "", odd)
	f.Add(int64(math.MaxInt64), uint8(ShardQuarantined), int64(1), "detector panic: ✗ \x00", []byte(nil))
	const magic = "HSDSJr2\n"
	type plainRecord ShardRecord
	f.Fuzz(func(t *testing.T, id int64, state uint8, attempts int64, errMsg string, findings []byte) {
		rec := ShardRecord{ShardID: int(id), State: ShardState(state), Attempts: int(attempts), Err: errMsg}
		for ; len(findings) >= 24; findings = findings[24:] {
			rec.Findings = append(rec.Findings, core.Finding{
				Center: geom.Pt(int(int64(binary.LittleEndian.Uint64(findings))), int(int64(binary.LittleEndian.Uint64(findings[8:])))),
				Score:  math.Float64frombits(binary.LittleEndian.Uint64(findings[16:])),
			})
		}
		var hand, codec bytes.Buffer
		if err := (framelog.File[ShardRecord]{Magic: magic}).Write(&hand, rec); err != nil {
			t.Fatal(err)
		}
		if err := (framelog.File[plainRecord]{Magic: magic}).Write(&codec, plainRecord(rec)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(hand.Bytes(), codec.Bytes()) {
			t.Fatalf("%+v: hand-encoded frame\n%x\nthe codec's\n%x", rec, hand.Bytes(), codec.Bytes())
		}
		if payload := rec.AppendPayload(nil); !bytes.HasSuffix(codec.Bytes(), payload) || codec.Len() != len(magic)+12+len(payload) {
			t.Fatalf("%+v: AppendPayload gives %x, not the frame's payload", rec, payload)
		}
		got, err := (framelog.File[ShardRecord]{Magic: magic}).Read(&hand)
		if err != nil {
			t.Fatal(err)
		}
		if got.ShardID != rec.ShardID || got.State != rec.State || got.Attempts != rec.Attempts || got.Err != rec.Err ||
			len(got.Findings) != len(rec.Findings) {
			t.Fatalf("decoded %+v, want %+v", got, rec)
		}
		for i, fd := range got.Findings {
			if want := rec.Findings[i]; fd.Center != want.Center || math.Float64bits(fd.Score) != math.Float64bits(want.Score) {
				t.Fatalf("finding %d decoded as %+v, want %+v", i, fd, want)
			}
		}
	})
}
