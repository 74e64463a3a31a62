package gdsii

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
)

func TestReal64KnownValues(t *testing.T) {
	// 1.0 in GDSII real: exponent 65 (16^1), mantissa 1/16 -> 0x4110...0.
	if got := encodeReal64(1); got != 0x4110000000000000 {
		t.Fatalf("encode(1) = %#016x", got)
	}
	if got := decodeReal64(0x4110000000000000); got != 1 {
		t.Fatalf("decode = %v", got)
	}
	if encodeReal64(0) != 0 || decodeReal64(0) != 0 {
		t.Fatal("zero encoding wrong")
	}
	// Negative values set the sign bit.
	if encodeReal64(-1)>>63 != 1 {
		t.Fatal("sign bit not set")
	}
}

func TestReal64RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
		got := decodeReal64(encodeReal64(v))
		return math.Abs(got-v) <= 1e-12*math.Abs(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{1e-9, 1e-3, 0.5, 2, 1024, -3.25} {
		got := decodeReal64(encodeReal64(v))
		if math.Abs(got-v) > 1e-12*math.Abs(v) {
			t.Fatalf("round trip %v -> %v", v, got)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := layout.New("roundtrip")
	var want []geom.Rect
	for i := 0; i < 200; i++ {
		r := geom.R(rng.Intn(100000), rng.Intn(100000), rng.Intn(100000), rng.Intn(100000))
		if r.Empty() {
			continue
		}
		if err := l.AddRect(r); err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	var buf bytes.Buffer
	if err := Write(&buf, l); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "roundtrip" {
		t.Fatalf("library name = %q", got.Name)
	}
	shapes := got.Shapes()
	if len(shapes) != len(want) {
		t.Fatalf("shape count = %d, want %d", len(shapes), len(want))
	}
	for i := range want {
		if shapes[i] != want[i] {
			t.Fatalf("shape %d = %v, want %v", i, shapes[i], want[i])
		}
	}
}

func TestWriteDeterministic(t *testing.T) {
	l := layout.New("det")
	if err := l.AddRect(geom.R(0, 0, 100, 200)); err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := Write(&a, l); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, l); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("GDSII output not byte-for-byte deterministic")
	}
}

func TestReadNegativeCoordinates(t *testing.T) {
	l := layout.New("neg")
	if err := l.AddRect(geom.R(-5000, -3000, -1000, -500)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, l); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumShapes() != 1 || got.Shapes()[0] != geom.R(-5000, -3000, -1000, -500) {
		t.Fatalf("negative-coordinate shape mangled: %v", got.Shapes())
	}
}

func TestReadLShapedBoundary(t *testing.T) {
	// Hand-build a stream containing an L-shaped boundary; Read must
	// decompose it into rectangles with the same total area.
	var buf bytes.Buffer
	mustRec := func(typ, dt byte, data []byte) {
		if err := writeRecord(&buf, typ, dt, data); err != nil {
			t.Fatal(err)
		}
	}
	mustRec(recHEADER, dtInt16, int16Payload(600))
	mustRec(recBGNLIB, dtInt16, timestampPayload())
	mustRec(recLIBNAME, dtASCII, asciiPayload("L"))
	mustRec(recBGNSTR, dtInt16, timestampPayload())
	mustRec(recSTRNAME, dtASCII, asciiPayload("TOP"))
	mustRec(recBOUNDARY, dtNone, nil)
	mustRec(recLAYER, dtInt16, int16Payload(1))
	mustRec(recDATATYPE, dtInt16, int16Payload(0))
	pts := []int32{0, 0, 20, 0, 20, 10, 10, 10, 10, 20, 0, 20, 0, 0}
	xy := make([]byte, 4*len(pts))
	for i, v := range pts {
		xy[4*i] = byte(uint32(v) >> 24)
		xy[4*i+1] = byte(uint32(v) >> 16)
		xy[4*i+2] = byte(uint32(v) >> 8)
		xy[4*i+3] = byte(uint32(v))
	}
	mustRec(recXY, dtInt32, xy)
	mustRec(recENDEL, dtNone, nil)
	mustRec(recENDSTR, dtNone, nil)
	mustRec(recENDLIB, dtNone, nil)

	l, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var area int64
	for _, s := range l.Shapes() {
		area += s.Area()
	}
	if area != 300 {
		t.Fatalf("L-shape area = %d, want 300", area)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not gdsii at all"))); err == nil {
		t.Fatal("garbage accepted")
	}
	// Valid header, then truncation.
	var buf bytes.Buffer
	if err := writeRecord(&buf, recHEADER, dtInt16, int16Payload(600)); err != nil {
		t.Fatal(err)
	}
	buf.Write([]byte{0x00})
	if _, err := Read(&buf); err == nil {
		t.Fatal("truncated stream accepted")
	}
	// Missing ENDLIB.
	var buf2 bytes.Buffer
	if err := writeRecord(&buf2, recHEADER, dtInt16, int16Payload(600)); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf2); err == nil {
		t.Fatal("stream without ENDLIB accepted")
	}
}

func TestRecordOddPayloadRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := writeRecord(&buf, recLIBNAME, dtASCII, []byte("abc")); err == nil {
		t.Fatal("odd payload accepted")
	}
}

func TestEmptyLayout(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, layout.New("")); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumShapes() != 0 {
		t.Fatal("phantom shapes in empty layout")
	}
	if got.Name != "HSD" {
		t.Fatalf("default name = %q", got.Name)
	}
}
