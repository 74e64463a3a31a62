package framelog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// magics are the seven formats built on the codec (DESIGN.md "On-disk
// formats"); the packages that own them are not importable from here.
var magics = []string{
	"HSDNNv2\n", "HSDCKv1\n", "HSDSJh1\n", "HSDSJr1\n", "HSDLWh1\n", "HSDLWr1\n", "HSDQBv1\n",
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
	testFormat = Format{Header: "HSDSJh1\n", Record: "HSDSJr1\n"}
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
	const magic = "HSDNNv2\n"
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
	frame := []byte("HSDSJr1\n\x00\x00\x00\x00\x40\x00\x00\x00\xde\xad\xbe\xef")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(bytes.NewReader(frame), "HSDSJr1\n")
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTorn) {
		t.Fatalf("err = %v, want ErrTorn", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("allocated %d bytes reading a %d-byte input", got, len(frame))
	}
	frame[8] = 0x01 // 1<<56: over the bound, refused before any read
	if _, err := ReadFrame(bytes.NewReader(frame), "HSDSJr1\n"); !errors.Is(err, ErrChecksum) {
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
