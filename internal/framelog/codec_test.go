package framelog

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"
)

type kindsInner struct {
	P    [2]int
	Tags []string
	Raw  []byte
}

// allKinds holds every kind the codec carries, nested in every way a
// format type nests them.
type allKinds struct {
	Flag  bool
	I     int
	I8    int8
	I16   int16
	I32   int32
	I64   int64
	U     uint
	U8    uint8
	U16   uint16
	U32   uint32
	U64   uint64
	F     float64
	S     string
	Dur   time.Duration
	Fs    []float64
	Arr   [3]int16
	Inner []kindsInner
	Grid  [][]float64
}

func sampleKinds() allKinds {
	return allKinds{
		Flag: true, I: -1 << 40, I8: math.MinInt8, I16: math.MaxInt16, I32: -7, I64: math.MinInt64,
		U: 1 << 63, U8: math.MaxUint8, U16: 300, U32: math.MaxUint32, U64: math.MaxUint64,
		F: math.Copysign(0, -1), S: "hotspot ✓", Dur: 1500 * time.Millisecond,
		Fs:    []float64{math.Inf(1), math.NaN(), 5e-324},
		Arr:   [3]int16{-1, 0, 1},
		Inner: []kindsInner{{P: [2]int{3, -4}, Tags: []string{"", "a"}, Raw: []byte{0, 0x80, 0xff}}, {}},
		Grid:  [][]float64{{1}, nil, {2, 3}},
	}
}

// TestCodecBytes pins the encoding: fields in order, zig-zag and plain
// varints, little-endian float bits, length-prefixed strings and
// slices, arrays as their elements.
func TestCodecBytes(t *testing.T) {
	type pt struct{ X, Y int }
	type rec struct {
		On  bool
		N   int
		U   uint8
		F   float64
		S   string
		Pts []pt
		Arr [2]uint16
	}
	v := rec{On: true, N: -3, U: 200, F: 1.5, S: "hi", Pts: []pt{{1, -1}}, Arr: [2]uint16{0, 300}}
	got, err := marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	want := "01" + "05" + "c801" + "000000000000f83f" + "026869" + "01" + "0201" + "00" + "ac02"
	if hex.EncodeToString(got) != want {
		t.Fatalf("encoding = %x, want %s", got, want)
	}
	back, err := unmarshal[rec](got)
	if err != nil || !reflect.DeepEqual(back, v) {
		t.Fatalf("decoded %+v, %v", back, err)
	}
}

// TestCodecRoundTrip: every kind at its extremes comes back bit for bit
// and re-encodes to the same bytes; an empty slice comes back nil.
func TestCodecRoundTrip(t *testing.T) {
	v := sampleKinds()
	enc, err := marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	got, err := unmarshal[allKinds](enc)
	if err != nil {
		t.Fatal(err)
	}
	again, err := marshal(got)
	if err != nil || !bytes.Equal(again, enc) {
		t.Fatalf("re-encoding differs (%v)", err)
	}
	if math.Float64bits(got.F) != math.Float64bits(v.F) || !math.IsNaN(got.Fs[1]) {
		t.Fatalf("float bits moved: %v %v", got.F, got.Fs)
	}
	got.Fs[1], v.Fs[1] = 0, 0 // NaN is not DeepEqual to itself
	if v.Inner[0].Raw == nil || got.Inner[1].Tags != nil {
		t.Fatalf("slices: %+v", got)
	}
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, v)
	}
}

// TestCodecRefusesUnsupportedTypes: a type holding anything the codec
// cannot carry is refused whole, on encode and on decode, even when the
// offending field is empty, so no field can vanish from a file.
func TestCodecRefusesUnsupportedTypes(t *testing.T) {
	type hidden struct {
		A int
		b int
	}
	zero := []byte{0}
	for _, tc := range []struct {
		name     string
		enc, dec func() error
	}{
		{"map",
			func() error { _, err := marshal(struct{ M map[string]int }{}); return err },
			func() error { _, err := unmarshal[struct{ M map[string]int }](zero); return err }},
		{"pointer",
			func() error { _, err := marshal(struct{ P *int }{}); return err },
			func() error { _, err := unmarshal[struct{ P *int }](zero); return err }},
		{"interface",
			func() error { _, err := marshal(struct{ V any }{}); return err },
			func() error { _, err := unmarshal[struct{ V any }](zero); return err }},
		{"func",
			func() error { _, err := marshal(struct{ F func() }{}); return err },
			func() error { _, err := unmarshal[struct{ F func() }](zero); return err }},
		{"float32 in an empty slice",
			func() error { _, err := marshal(struct{ F []float32 }{}); return err },
			func() error { _, err := unmarshal[struct{ F []float32 }](zero); return err }},
		{"slice of zero-size elements",
			func() error { _, err := marshal(struct{ U []struct{} }{}); return err },
			func() error { _, err := unmarshal[struct{ U []struct{} }](zero); return err }},
		{"unexported field",
			func() error { _, err := marshal(hidden{A: 1}); return err },
			func() error { _, err := unmarshal[hidden]([]byte{2, 0}); return err }},
	} {
		if encErr, decErr := tc.enc(), tc.dec(); encErr == nil || decErr == nil {
			t.Errorf("%s: encode err %v, decode err %v, want both refused", tc.name, encErr, decErr)
		}
	}
}

// TestDecodeRefusesMalformed: each way a payload can fail to be the one
// encoding of a value is refused with errPayload.
func TestDecodeRefusesMalformed(t *testing.T) {
	type flags struct{ A, B bool }
	type ints struct{ N int }
	type small struct{ N int8 }
	type strs struct{ S string }
	for _, tc := range []struct {
		name   string
		decode func() error
	}{
		{"trailing bytes", func() error { _, err := unmarshal[flags]([]byte{1, 0, 0}); return err }},
		{"bool byte 2", func() error { _, err := unmarshal[flags]([]byte{1, 2}); return err }},
		{"non-minimal varint", func() error { _, err := unmarshal[ints]([]byte{0x82, 0x00}); return err }},
		{"varint over 64 bits", func() error { _, err := unmarshal[ints](bytes.Repeat([]byte{0xff}, 11)); return err }},
		{"value over the field's width", func() error { _, err := unmarshal[small]([]byte{0x80, 0x02}); return err }},
		{"input ends inside a value", func() error { _, err := unmarshal[flags]([]byte{1}); return err }},
		{"input ends inside a float64", func() error { _, err := unmarshal[struct{ F float64 }](make([]byte, 7)); return err }},
		{"string longer than the input", func() error { _, err := unmarshal[strs]([]byte{3, 'a', 'b'}); return err }},
		{"float slice longer than the input", func() error {
			_, err := unmarshal[struct{ F []float64 }](append([]byte{2}, make([]byte, 15)...))
			return err
		}},
		{"empty payload", func() error { _, err := unmarshal[ints](nil); return err }},
	} {
		if err := tc.decode(); !errors.Is(err, errPayload) {
			t.Errorf("%s: err = %v, want errPayload", tc.name, err)
		}
	}
}

// TestDecodeHugeLengthAllocatesNothing: a few-byte payload declaring a
// 2^40-element slice is refused before anything the size of the
// declaration is allocated.
func TestDecodeHugeLengthAllocatesNothing(t *testing.T) {
	payload := append(binary.AppendUvarint(nil, 1<<40), 1, 2, 3)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, errF := unmarshal[struct{ F []float64 }](payload)
	_, errS := unmarshal[struct{ S [][]string }](payload)
	runtime.ReadMemStats(&after)
	for _, err := range []error{errF, errS} {
		if !errors.Is(err, errPayload) {
			t.Fatalf("err = %v, want errPayload", err)
		}
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("allocated %d bytes refusing a %d-byte payload", got, len(payload))
	}
}

// goldenPayloads are the payloads of the repo's golden files, frame by
// frame: real encodings of every format type, for the fuzzer to mutate.
func goldenPayloads(f *testing.F) [][]byte {
	var out [][]byte
	for _, g := range []struct{ path, header, record string }{
		{"../nn/testdata/golden.net", "HSDNNv3\n", ""},
		{"../scanfarm/testdata/golden.journal", "HSDSJh2\n", "HSDSJr2\n"},
		{"../datengine/testdata/golden.wal", "HSDLWh3\n", "HSDLWr3\n"},
	} {
		data, err := os.ReadFile(g.path)
		if err != nil {
			f.Fatal(err)
		}
		r := bytes.NewReader(data)
		for magic := g.header; r.Len() > 0; magic = g.record {
			payload, err := ReadFrame(r, magic)
			if err != nil {
				f.Fatalf("%s: %v", g.path, err)
			}
			out = append(out, payload)
		}
	}
	return out
}

// FuzzDecode: the decoder never panics, and any payload it accepts
// re-encodes to exactly itself: the codec has one encoding per value.
func FuzzDecode(f *testing.F) {
	for _, v := range []allKinds{sampleKinds(), {}} {
		enc, err := marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	for _, p := range goldenPayloads(f) {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := unmarshal[allKinds](data)
		if err != nil {
			if !errors.Is(err, errPayload) {
				t.Fatalf("undocumented error: %v", err)
			}
			return
		}
		again, err := marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted payload re-encodes to other bytes:\n in %x\nout %x", data, again)
		}
	})
}
