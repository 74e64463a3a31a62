package scanfarm

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"github.com/golitho/hsd/internal/framelog"
)

// frameEnds returns the offset at which each frame of a journal ends,
// the header's first.
func frameEnds(t *testing.T, data []byte) []int64 {
	t.Helper()
	r := bytes.NewReader(data)
	if _, err := framelog.ReadFrame(r, journalFormat.Header); err != nil {
		t.Fatal(err)
	}
	ends := []int64{int64(len(data)) - int64(r.Len())}
	for {
		_, err := framelog.ReadFrame(r, journalFormat.Record)
		if err == io.EOF {
			return ends
		}
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, int64(len(data))-int64(r.Len()))
	}
}

// TestResumeFromEveryFrameBoundary: a real farm run's journal, cut at
// every frame boundary (and one byte past it, a torn frame), resumes to
// the uninterrupted run's Result. The committer appends a group of
// records with one fsync, all or nothing: a cut at a group's end is
// what a kill between groups leaves, and a cut inside a group is what a
// kill during the group's writes can leave. That Append never
// returned, so the run had counted none of the group's shards durable,
// yet the whole frames before the cut are records like any other (a
// failed Append, unlike a kill, is cut back to the group's start; see
// framelog's TestFailedGroupAppendIsCutBackWhole). So at every cut,
// resume must hand back exactly the records before it, in order, drop
// only the torn bytes, rescan every other shard, and leave a journal
// that holds each shard once with the uninterrupted run's record.
func TestResumeFromEveryFrameBoundary(t *testing.T) {
	chip := testChip(t, 8)
	det := densityDetector{thr: 0.5}
	cfg := Config{SkipEmpty: true, Workers: 2, ShardRows: 1}
	meta := cfg.Meta(chip, det.Name())
	plan := NewPlan(chip.Bounds(), cfg)
	dir := t.TempDir()

	full := filepath.Join(dir, "full.journal")
	j, err := CreateJournal(full, meta)
	if err != nil {
		t.Fatal(err)
	}
	run := cfg
	run.Journal = j
	want, err := Run(context.Background(), chip, det, run)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if want.Interrupted || want.Completed != plan.NumShards || len(want.Findings) == 0 {
		t.Fatalf("uninterrupted run: %+v", want)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	_, order, _, err := framelog.Load[Meta, ShardRecord](full, journalFormat)
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(t, data)
	if len(ends) != plan.NumShards+1 || ends[len(ends)-1] != int64(len(data)) {
		t.Fatalf("%d frames ending at %v in %d bytes, want a header and %d records",
			len(ends), ends, len(data), plan.NumShards)
	}
	sorted := func(recs []ShardRecord) []ShardRecord {
		out := append([]ShardRecord(nil), recs...)
		sort.Slice(out, func(a, b int) bool { return out[a].ShardID < out[b].ShardID })
		return out
	}
	wantRecs := sorted(order)

	path := filepath.Join(dir, "cut.journal")
	for k, end := range ends {
		for _, torn := range []int64{0, 1} {
			cut := end + torn
			if cut > int64(len(data)) {
				continue
			}
			if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			j, completed, err := ResumeJournal(path, meta)
			if err != nil {
				t.Fatalf("cut at %d: %v", cut, err)
			}
			if tail := j.Tail(); tail.Offset != end || tail.Discarded != torn {
				t.Fatalf("cut at %d: tail %+v, want offset %d with %d bytes discarded", cut, tail, end, torn)
			}
			if len(completed) != k {
				t.Fatalf("cut at %d: resume kept %d records, want the %d before the cut", cut, len(completed), k)
			}
			for _, rec := range order[:k] {
				if !reflect.DeepEqual(completed[rec.ShardID], rec) {
					t.Fatalf("cut at %d: shard %d resumed as %+v, want %+v", cut, rec.ShardID, completed[rec.ShardID], rec)
				}
			}
			scanned := 0 // the windows of every shard left to rescan
			for id := 0; id < plan.NumShards; id++ {
				if _, ok := completed[id]; !ok {
					r0, r1 := plan.ShardRowRange(id)
					scanned += (r1 - r0) * plan.Cols
				}
			}
			resume := cfg
			resume.Journal, resume.Completed = j, completed
			got, err := Run(context.Background(), chip, det, resume)
			if err != nil {
				t.Fatalf("cut at %d: %v", cut, err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if got.Resumed != k || got.Scanned != scanned {
				t.Fatalf("cut at %d: resumed %d shards and scanned %d windows, want %d and %d",
					cut, got.Resumed, got.Scanned, k, scanned)
			}
			got.Resumed, got.Scanned = want.Resumed, want.Scanned
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cut at %d: resumed Result diverges:\ngot  %+v\nwant %+v", cut, got, want)
			}
			_, recs, tail, err := framelog.Load[Meta, ShardRecord](path, journalFormat)
			if err != nil || tail.Discarded != 0 {
				t.Fatalf("cut at %d: finished journal: tail %+v, err %v", cut, tail, err)
			}
			if !reflect.DeepEqual(sorted(recs), wantRecs) {
				t.Fatalf("cut at %d: finished journal holds %d records, want each of the %d shards once as first journaled",
					cut, len(recs), len(wantRecs))
			}
		}
	}
}
