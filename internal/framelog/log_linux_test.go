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
