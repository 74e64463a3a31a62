package framelog

import (
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"testing"
)

// TestFailedAppendDoesNotStrandLaterRecords: an append whose write
// fails part way (the file-size limit cuts it short) is cut back off the
// file, so the next append lands where it would have landed and Load
// returns it, instead of stopping at a torn frame in front of it.
func TestFailedAppendDoesNotStrandLaterRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.log")
	l, err := Create[testMeta, testRec](path, testFormat, testHeader)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recs := testRecs()
	if err := l.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// The limit cuts recs[1]'s frame one byte short, leaving more torn
	// bytes than recs[2]'s whole frame would overwrite.
	payload, err := marshal(recs[1])
	if err != nil {
		t.Fatal(err)
	}
	limit := uint64(st.Size() + frameLen(testFormat.Record, payload) - 1)
	if err := withFileSizeLimit(t, limit, func() error { return l.Append(recs[1]) }); err == nil {
		t.Fatal("an append past the file-size limit succeeded")
	}
	if err := l.Append(recs[2]); err != nil {
		t.Fatal(err)
	}
	_, got, tail, err := Load[testMeta, testRec](path, testFormat)
	if want := []testRec{recs[0], recs[2]}; err != nil || !sameRecs(got, want) || tail.Discarded != 0 {
		t.Fatalf("load: records %+v, tail %+v, err %v; want %+v and nothing discarded", got, tail, err, want)
	}
}

// TestFailedGroupAppendIsCutBackWhole: a multi-record append whose
// write fails part way, after its first frame is whole on disk, is cut
// back to where the log ended before the call, so no record of the
// group survives, and the next append lands where the group would have.
func TestFailedGroupAppendIsCutBackWhole(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.log")
	l, err := Create[testMeta, testRec](path, testFormat, testHeader)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recs := testRecs()
	if err := l.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	before := st.Size()
	// The limit lets recs[1]'s frame through whole and cuts recs[2]'s
	// one byte short.
	var group int64
	for _, r := range recs[1:3] {
		payload, err := marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		group += frameLen(testFormat.Record, payload)
	}
	if err := withFileSizeLimit(t, uint64(before+group-1), func() error { return l.Append(recs[1], recs[2]) }); err == nil {
		t.Fatal("a group append past the file-size limit succeeded")
	}
	if st, err = os.Stat(path); err != nil || st.Size() != before {
		t.Fatalf("after the failed group the log is %d bytes (%v), want the %d it had before", st.Size(), err, before)
	}
	if _, got, tail, err := Load[testMeta, testRec](path, testFormat); err != nil || !sameRecs(got, recs[:1]) || tail.Discarded != 0 {
		t.Fatalf("load after the failed group: records %+v, tail %+v, err %v; want only %+v", got, tail, err, recs[:1])
	}
	if err := l.Append(recs[3]); err != nil {
		t.Fatal(err)
	}
	_, got, tail, err := Load[testMeta, testRec](path, testFormat)
	if want := []testRec{recs[0], recs[3]}; err != nil || !sameRecs(got, want) || tail.Discarded != 0 {
		t.Fatalf("load: records %+v, tail %+v, err %v; want %+v and nothing discarded", got, tail, err, want)
	}
	payload, err := marshal(recs[3])
	if err != nil {
		t.Fatal(err)
	}
	if want := before + frameLen(testFormat.Record, payload); tail.Offset != want {
		t.Fatalf("the next append ends at %d, want %d: it did not land where the group would have", tail.Offset, want)
	}
}

// withFileSizeLimit runs fn with RLIMIT_FSIZE at limit bytes and
// SIGXFSZ ignored, so a write past the limit fails with EFBIG instead
// of killing the process.
func withFileSizeLimit(t *testing.T, limit uint64, fn func() error) error {
	t.Helper()
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	signal.Ignore(syscall.SIGXFSZ)
	defer signal.Reset(syscall.SIGXFSZ)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &syscall.Rlimit{Cur: limit, Max: old.Max}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
			t.Fatal(err)
		}
	}()
	return fn()
}
