package framelog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// magics are the six frame types of the repo's formats (DESIGN.md
// "On-disk formats"); the packages that own them are not importable
// from here.
var magics = []string{
	"HSDNNv3\n", "HSDSJh2\n", "HSDSJr2\n", "HSDLWh3\n", "HSDLWr3\n", "HSDSTv1\n",
}

type testMeta struct {
	Run  string
	Rows int
}

type testRec struct {
	ID    int
	Note  string
	Score []float64
}

var (
	testFormat = Format{Header: "HSDSJh2\n", Record: "HSDSJr2\n"}
	testHeader = testMeta{Run: "chip", Rows: 4}
)

func testRecs() []testRec {
	return []testRec{
		{ID: 0, Note: "done", Score: []float64{0.91, 0.77}},
		{ID: 3, Note: "quarantined: detector panic"},
		{ID: 1, Score: []float64{0.5}},
		{ID: 2},
	}
}

// writeTestLog returns the log's bytes and the end offset of each frame
// (ends[0] is the header frame's).
func writeTestLog(t *testing.T, path string) (full []byte, ends []int64) {
	t.Helper()
	l, err := Create[testMeta, testRec](path, testFormat, testHeader)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRecs() {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if full, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(full); {
		magicLen := len(testFormat.Record) // the header magic is as long
		off += magicLen + lenCRCLen + int(binary.BigEndian.Uint64(full[off+magicLen:]))
		ends = append(ends, int64(off))
	}
	return full, ends
}

// sameRecs is DeepEqual that does not tell a nil slice from an empty one.
func sameRecs(got, want []testRec) bool {
	return len(got) == len(want) && (len(want) == 0 || reflect.DeepEqual(got, want))
}

// TestFrameHeaderBytes pins the frame layout of every format against a
// literal payload: magic, u64 big-endian length, u32 big-endian CRC32.
func TestFrameHeaderBytes(t *testing.T) {
	for _, magic := range magics {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, magic, []byte("hotspot")); err != nil {
			t.Fatal(err)
		}
		want := magic + "\x00\x00\x00\x00\x00\x00\x00\x07" + "\x48\xb3\x83\x13" + "hotspot"
		if buf.String() != want {
			t.Fatalf("%q frame = %x, want %x", magic, buf.Bytes(), want)
		}
		got, err := ReadFrame(&buf, magic)
		if err != nil || string(got) != "hotspot" {
			t.Fatalf("ReadFrame = %q, %v", got, err)
		}
		if _, err := ReadFrame(&buf, magic); err != io.EOF {
			t.Fatalf("read past the last frame = %v, want io.EOF", err)
		}
	}
}

// TestFrameEveryTruncationAndBitFlip: no proper prefix and no single
// bit flip of a frame ever reads back as a frame.
func TestFrameEveryTruncationAndBitFlip(t *testing.T) {
	const magic = "HSDNNv3\n"
	var buf bytes.Buffer
	if err := WriteFrame(&buf, magic, []byte("a payload long enough to tear")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		if _, err := ReadFrame(bytes.NewReader(full[:cut]), magic); !errors.Is(err, ErrTorn) {
			t.Fatalf("cut %d/%d: err = %v, want ErrTorn", cut, len(full), err)
		}
	}
	for bit := 0; bit < len(full)*8; bit++ {
		bad := append([]byte(nil), full...)
		bad[bit/8] ^= 1 << (bit % 8)
		_, err := ReadFrame(bytes.NewReader(bad), magic)
		want := ErrChecksum
		if bit/8 < len(magic) {
			want = ErrBadMagic
		} else if size := binary.BigEndian.Uint64(bad[len(magic):]); size > uint64(len(full)-len(magic)-lenCRCLen) && size <= MaxPayload {
			want = ErrTorn // a longer declared length runs off the end
		}
		if !errors.Is(err, want) {
			t.Fatalf("bit %d: err = %v, want %v", bit, err, want)
		}
	}
	if err := WriteFrame(io.Discard, magic, make([]byte, MaxPayload+1)); err == nil {
		t.Fatal("WriteFrame accepted a payload over MaxPayload")
	}
}

// TestReadFrameAllocationFollowsInput: a 20-byte frame declaring 1 GiB
// is torn, and finding that out allocates next to nothing.
func TestReadFrameAllocationFollowsInput(t *testing.T) {
	frame := []byte("HSDSJr2\n\x00\x00\x00\x00\x40\x00\x00\x00\xde\xad\xbe\xef")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(bytes.NewReader(frame), "HSDSJr2\n")
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTorn) {
		t.Fatalf("err = %v, want ErrTorn", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("allocated %d bytes reading a %d-byte input", got, len(frame))
	}
	frame[8] = 0x01 // 1<<56: over the bound, refused before any read
	if _, err := ReadFrame(bytes.NewReader(frame), "HSDSJr2\n"); !errors.Is(err, ErrChecksum) {
		t.Fatalf("implausible length: err = %v, want ErrChecksum", err)
	}
}

// TestLogEveryTruncationAndBitFlip is the crash-tolerance sweep every
// log format relies on. Damage inside the header frame fails the load.
// Damage in record k (a cut anywhere in it, or any flipped bit) keeps
// records 0..k-1, reports every later byte as discarded (after a
// mid-file flip that includes intact frames: dropped, but never
// silently), and resumes into a truncated log that takes appends again.
func TestLogEveryTruncationAndBitFlip(t *testing.T) {
	dir := t.TempDir()
	full, ends := writeTestLog(t, filepath.Join(dir, "full.log"))
	recs := testRecs()
	path := filepath.Join(dir, "damaged.log")
	extra := testRec{ID: 7, Note: "appended after resume"}

	// check takes the damaged bytes and the offset of the first missing
	// or flipped byte (len(full) for none).
	check := func(name string, data []byte, at int64, appendAfter bool) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		k := 0 // the first damaged frame
		for k < len(ends) && ends[k] <= at {
			k++
		}
		meta, got, tail, err := Load[testMeta, testRec](path, testFormat)
		if k == 0 {
			if err == nil {
				t.Fatalf("%s: damage inside the header loaded silently", name)
			}
			return
		}
		want := Tail{Offset: ends[k-1], Discarded: int64(len(data)) - ends[k-1]}
		if err != nil || meta != testHeader || !sameRecs(got, recs[:k-1]) || tail != want {
			t.Fatalf("%s: load: meta %+v, records %+v, tail %+v (want %+v), err %v", name, meta, got, tail, want, err)
		}
		l, resumed, err := Resume[testMeta, testRec](path, testFormat, testHeader)
		if err != nil || !sameRecs(resumed, recs[:k-1]) || l.Tail() != want {
			t.Fatalf("%s: resume: records %+v, tail %+v (want %+v), err %v", name, resumed, l.Tail(), want, err)
		}
		defer l.Close()
		if st, err := os.Stat(path); err != nil || st.Size() != want.Offset {
			t.Fatalf("%s: resume left %d bytes, want the %d-byte intact prefix", name, st.Size(), want.Offset)
		}
		if !appendAfter {
			return
		}
		if err := l.Append(extra); err != nil {
			t.Fatalf("%s: append after resume: %v", name, err)
		}
		_, again, tail, err := Load[testMeta, testRec](path, testFormat)
		if err != nil || !sameRecs(again, append(recs[:k-1:k-1], extra)) || tail.Discarded != 0 {
			t.Fatalf("%s: after append: records %+v, tail %+v, err %v", name, again, tail, err)
		}
	}
	for cut := 0; cut <= len(full); cut++ {
		check(fmt.Sprintf("cut %d", cut), full[:cut], int64(cut), true)
	}
	for bit := 0; bit < len(full)*8; bit++ {
		flipped := append([]byte(nil), full...)
		flipped[bit/8] ^= 1 << (bit % 8)
		// One fsynced append per byte, not per bit, keeps the sweep fast.
		check(fmt.Sprintf("bit %d", bit), flipped, int64(bit/8), bit%8 == 0)
	}
}

// TestGroupAppendBytes: one Append of several records writes the bytes
// that appending them one at a time writes, so a group changes only
// how many fsyncs the records cost.
func TestGroupAppendBytes(t *testing.T) {
	dir := t.TempDir()
	singles, _ := writeTestLog(t, filepath.Join(dir, "singles.log"))
	path := filepath.Join(dir, "group.log")
	l, err := Create[testMeta, testRec](path, testFormat, testHeader)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecs()
	if err := l.Append(recs[:1]...); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(recs[1:]...); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if group, err := os.ReadFile(path); err != nil || !bytes.Equal(group, singles) {
		t.Fatalf("grouped appends wrote %d bytes (%v) unlike the %d of single appends", len(group), err, len(singles))
	}
}

// TestAppendAllocationsIgnoreGrouping: what Append allocates depends on
// the records, not on how the caller groups or orders them, so a scan's
// allocations do not move with the groups its committer happens to
// form. Frames go out one at a time through the log's one buffer, which
// grows to the largest of them (the 9 000-float record) whatever the
// grouping or order.
func TestAppendAllocationsIgnoreGrouping(t *testing.T) {
	var recs []testRec
	for i, n := range []int{0, 3, 700, 2000, 9000, 40, 5000, 1} {
		recs = append(recs, testRec{ID: i, Note: strings.Repeat("x", i), Score: make([]float64, n)})
	}
	rev := slices.Clone(recs)
	slices.Reverse(rev)
	var singles [][]testRec
	for i := range recs {
		singles = append(singles, recs[i:i+1])
	}
	dir := t.TempDir()
	// A process's first GC starts its mark workers, which allocate;
	// start them before anything is counted.
	runtime.GC()
	// A fresh log each time: a buffer that grew with the largest group
	// would grow in the first pass and show only there.
	path := filepath.Join(dir, "run.log")
	allocs := func(groups [][]testRec) float64 {
		return testing.AllocsPerRun(3, func() {
			l, err := Create[testMeta, testRec](path, testFormat, testHeader)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			for _, g := range groups {
				if err := l.Append(g...); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	want := allocs([][]testRec{recs})
	for _, tc := range []struct {
		name   string
		groups [][]testRec
	}{
		{"singles", singles},
		{"reversed", [][]testRec{rev}},
		{"uneven", [][]testRec{recs[:3], recs[3:4], recs[4:]}},
	} {
		if got := allocs(tc.groups); got != want {
			t.Errorf("%s: %.0f allocations an append pass, one group makes %.0f", tc.name, got, want)
		}
	}
}

// handRec is testRec with a hand-written encoder, which counts its calls
// in handCalls.
type handRec testRec

var handCalls int

func (r *handRec) AppendPayload(b []byte) []byte {
	handCalls++
	b = binary.AppendVarint(b, int64(r.ID))
	b = append(binary.AppendUvarint(b, uint64(len(r.Note))), r.Note...)
	b = binary.AppendUvarint(b, uint64(len(r.Score)))
	for _, x := range r.Score {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// TestFrameDispatchesToPayloadAppender: a record type with an
// AppendPayload is framed by it, the frame is the codec's, and the
// dispatch allocates nothing once the buffer has grown: it asserts on a
// pointer to the caller's record, not on a boxed copy.
func TestFrameDispatchesToPayloadAppender(t *testing.T) {
	var buf []byte
	for _, rec := range testRecs() {
		want, err := appendFrame(nil, testFormat.Record, &rec)
		if err != nil {
			t.Fatal(err)
		}
		hand := handRec(rec)
		calls := handCalls
		if buf, err = appendFrame(buf[:0], testFormat.Record, &hand); err != nil || handCalls != calls+1 || !bytes.Equal(buf, want) {
			t.Fatalf("record %d: hand frame %x (%v, %d calls), codec frame %x", rec.ID, buf, err, handCalls-calls, want)
		}
	}
	recs := make([]handRec, 0, 4)
	for _, rec := range testRecs() {
		recs = append(recs, handRec(rec))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for i := range recs {
			buf, _ = appendFrame(buf[:0], testFormat.Record, &recs[i])
		}
	}); allocs != 0 {
		t.Fatalf("framing %d hand-encoded records allocates %v times, want 0", len(recs), allocs)
	}
}

// TestAppendCodecRefusalWritesNothing: a record the codec refuses
// fails its Append before a byte is written, so the file is left as it
// was and the log is not latched broken: a later Append gets the
// codec's own error again, not a refusal for an earlier failure.
func TestAppendCodecRefusalWritesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.log")
	type mapRec struct{ M map[string]int }
	l, err := Create[testMeta, mapRec](path, testFormat, testHeader)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := l.Append(mapRec{}); err == nil || !strings.Contains(err.Error(), "cannot carry") {
			t.Fatalf("append %d of a map record: %v, want the codec's refusal", i, err)
		}
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("a refused record changed the log: %d bytes (%v), had %d", len(after), err, len(before))
	}
}

func TestResumeRefusesOtherMeta(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.log")
	full, _ := writeTestLog(t, path)
	other := testMeta{Run: "another chip", Rows: 4}
	if _, _, err := Resume[testMeta, testRec](path, testFormat, other); !errors.Is(err, ErrMetaMismatch) {
		t.Fatalf("err = %v, want ErrMetaMismatch", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, full) {
		t.Fatal("a refused resume modified the log")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.net")
	write := func(s string, fail error) error {
		return WriteFileAtomic(path, func(w io.Writer) error {
			fmt.Fprint(w, s)
			return fail
		})
	}
	if err := write("first", nil); err != nil {
		t.Fatal(err)
	}
	if err := write("second", nil); err != nil { // rename over an existing file
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := write("torn", boom); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the writer's error", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "second" {
		t.Fatalf("a failed save left %q, want the previous file", got)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("directory has %d entries, want 1 (no temp droppings)", len(entries))
	}
}

// TestFile: a single-frame file round-trips through Save and Load, and
// every way it can be absent or damaged is one of the documented errors.
func TestFile(t *testing.T) {
	format := File[testRec]{Magic: "HSDSTv1\n"}
	path := filepath.Join(t.TempDir(), "suite.gob")
	want := testRecs()[0]
	if err := format.Save(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := format.Load(path)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("Load = %+v, %v, want %+v", got, err, want)
	}
	full, _ := os.ReadFile(path)
	var buf bytes.Buffer
	if err := format.Write(&buf, want); err != nil || !bytes.Equal(buf.Bytes(), full) {
		t.Fatalf("Write gives other bytes than Save (%v)", err)
	}
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTorn},
		{"cut", full[:len(full)-1], ErrTorn},
		{"other magic", append([]byte("HSDNNv3\n"), full[8:]...), ErrBadMagic},
	} {
		if _, err := format.Read(bytes.NewReader(tc.data)); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if _, err := format.Load(path + ".missing"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing file: err = %v, want fs.ErrNotExist", err)
	}
}

// FuzzReadFrame: arbitrary bytes under any magic either fail with one
// of the documented errors or yield a payload that re-frames to exactly
// the bytes consumed.
func FuzzReadFrame(f *testing.F) {
	for _, magic := range magics {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, magic, []byte("seed payload for "+magic)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, magic := range magics {
			payload, err := ReadFrame(bytes.NewReader(data), magic)
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrTorn) && !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrBadMagic) {
					t.Fatalf("undocumented error: %v", err)
				}
				continue
			}
			var out bytes.Buffer
			if err := WriteFrame(&out, magic, payload); err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(data, out.Bytes()) {
				t.Fatalf("accepted frame does not re-encode to its input")
			}
		}
	})
}
