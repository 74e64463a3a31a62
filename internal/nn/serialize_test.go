package nn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/golitho/hsd/internal/framelog"
)

func testNet(t *testing.T) *Network {
	t.Helper()
	net := BuildMLP(4, 8)
	return net
}

// TestSaveFileAtomicRoundTrip writes through the crash-safe path and
// loads the result back.
func TestSaveFileAtomicRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.net")
	net := testNet(t)
	if err := SaveFile(path, net); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Layers) != len(net.Layers) {
		t.Fatalf("layers = %d, want %d", len(got.Layers), len(net.Layers))
	}
}

// TestLoadRejectsCorruption proves Load is wired through framelog's
// integrity check (whose exhaustive suite lives there): a flipped
// payload bit or a torn tail fails before the decoder sees the bytes.
func TestLoadRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, testNet(t)); err != nil {
		t.Fatal(err)
	}
	full := append([]byte(nil), buf.Bytes()...)
	if _, err := Load(bytes.NewReader(full[:len(full)-1])); !errors.Is(err, framelog.ErrTorn) {
		t.Fatalf("truncation error = %v, want ErrTorn", err)
	}
	full[len(full)-5] ^= 0x40
	if _, err := Load(bytes.NewReader(full)); !errors.Is(err, framelog.ErrChecksum) {
		t.Fatalf("corruption error = %v, want ErrChecksum", err)
	}
}

// TestLoadGolden: the network file loads to the weights it was saved
// from, and saving that network again reproduces the file byte for
// byte. golden.net.v1 is the same network in the gob format it replaced
// (itself first written before framelog existed); its value, decoded
// by gob, is the new file's field for field, floats by their bits.
func TestLoadGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden.net")
	if err != nil {
		t.Fatal(err)
	}
	net, err := LoadFile("testdata/golden.net")
	if err != nil {
		t.Fatal(err)
	}
	file, err := netFormat.Load("testdata/golden.net")
	if err != nil {
		t.Fatal(err)
	}
	if old := gobV1[netFile](t, "testdata/golden.net.v1", "HSDNNv2\n"); !reflect.DeepEqual(old, file) ||
		!bytes.Equal(framed(netFormat, old), golden) {
		t.Fatal("golden.net.v1 holds another network than golden.net")
	}
	want := smallNet()
	if len(net.Layers) != len(want.Layers) {
		t.Fatalf("%d layers, want %d", len(net.Layers), len(want.Layers))
	}
	for i, l := range want.Layers {
		if got := net.Layers[i].Name(); got != l.Name() {
			t.Fatalf("layer %d is %s, want %s", i, got, l.Name())
		}
	}
	d0, d3, drop := net.Layers[0].(*Dense), net.Layers[3].(*Dense), net.Layers[2].(*Dropout)
	if d0.W.Data[0] != 0.4142548774517474 || d0.B[0] != -0.018932620822876365 ||
		d3.W.Data[len(d3.W.Data)-1] != -0.006357123101204157 || d3.B[1] != -0.018797464189068774 {
		t.Fatalf("weights changed: %v %v %v %v", d0.W.Data[0], d0.B[0], d3.W.Data[len(d3.W.Data)-1], d3.B[1])
	}
	if drop.seed != 42 || drop.draws != 256 {
		t.Fatalf("dropout stream at (%d, %d), want (42, 256)", drop.seed, drop.draws)
	}
	if !bytes.Equal(saveBytes(t, net), golden) {
		t.Fatal("re-saving the golden network does not reproduce its bytes")
	}
}

// gobV1 is the value a single-frame file of the gob format, the one
// before the codec, holds under magic. Gob matches fields by name, so T
// is the format's current type, without the Version field it dropped.
func gobV1[T any](t *testing.T, path, magic string) T {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := framelog.ReadFrame(bytes.NewReader(data), magic)
	if err != nil {
		t.Fatal(err)
	}
	var v T
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestLoadRefusesRawGob: an unframed payload, the form network files
// had (as a gob stream) before the frame existed, is refused at the
// magic.
func TestLoadRefusesRawGob(t *testing.T) {
	file, err := newNetFile(testNet(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(payloadOf(netFormat, file))); !errors.Is(err, framelog.ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

// hostileLayer is a layer snapshot no constructor may see, and what the
// error refusing it must say.
type hostileLayer struct {
	name, want string
	s          snapshot
}

// hostileLayers are the snapshots that once panicked inside Load (a
// divide by zero, a constructor's wiring panic), loaded as nonsense, or
// would make Load allocate what the file's bytes do not pay for.
func hostileLayers() []hostileLayer {
	conv := func(inC, inH, inW, outC, k, stride, pad int) snapshot {
		return snapshot{Kind: "conv2d", Ints: []int{inC, inH, inW, outC, k, stride, pad},
			Floats: [][]float64{make([]float64, outC*inC*k*k), make([]float64, outC)}}
	}
	return []hostileLayer{
		{"conv2d-stride-0", "stride 0", conv(1, 4, 4, 1, 3, 0, 1)},
		{"conv2d-stride-2", "stride 2", conv(1, 5, 5, 2, 3, 2, 0)},
		{"conv2d-k9-over-4x4", "implausible geometry", conv(1, 4, 4, 1, 9, 1, 0)},
		{"conv2d-pad-overflow", "implausible geometry", conv(1, 4, 4, 1, 3, 1, 1<<62)},
		{"conv2d-short-payload", "weight size mismatch", snapshot{Kind: "conv2d", Ints: []int{2, 4, 4, 3, 3, 1, 1},
			Floats: [][]float64{make([]float64, 53), make([]float64, 3)}}},
		{"dense-negative-in", "weight size mismatch", snapshot{Kind: "dense", Ints: []int{-1, 2},
			Floats: [][]float64{nil, {0, 0}}}},
		{"dense-50000x50000-short", "weight size mismatch", snapshot{Kind: "dense", Ints: []int{50000, 50000},
			Floats: [][]float64{{1, 2, 3}, {4, 5}}}},
		{"maxpool2d-size-0", "implausible geometry", snapshot{Kind: "maxpool2d", Ints: []int{1, 4, 4, 0}}},
		{"maxpool2d-size-3-over-4", "implausible geometry", snapshot{Kind: "maxpool2d", Ints: []int{1, 4, 4, 3}}},
		{"relu-negative", "out of range", snapshot{Kind: "relu", Ints: []int{-3}}},
		{"relu-huge", "out of range", snapshot{Kind: "relu", Ints: []int{1 << 40}}},
		{"dropout-zero", "out of range", snapshot{Kind: "dropout", Ints: []int{0}, Seeds: []int64{1},
			Floats: [][]float64{{0.1}}}},
		{"batchnorm", "unknown layer kind", snapshot{Kind: "batchnorm", Ints: []int{4},
			Floats: [][]float64{{1, 1, 1, 1}, {0, 0, 0, 0}, {0, 0, 0, 0}, {1, 1, 1, 1}, {1e-5, 0.1}}}},
	}
}

// framed is what format writes for v.
func framed[T any](format framelog.File[T], v T) []byte {
	var buf bytes.Buffer
	if err := format.Write(&buf, v); err != nil {
		panic(err) // a bytes.Buffer write cannot fail
	}
	return buf.Bytes()
}

// payloadOf is the payload of the frame format writes for v: what the
// fuzz targets frame themselves.
func payloadOf[T any](format framelog.File[T], v T) []byte {
	payload, err := framelog.ReadFrame(bytes.NewReader(framed(format, v)), format.Magic)
	if err != nil {
		panic(err)
	}
	return payload
}

// netBytes is a network file holding layers.
func netBytes(layers ...snapshot) []byte {
	return framed(netFormat, netFile{Layers: layers})
}

// TestLoadRefusesHostileGeometry: a snapshot whose geometry no layer can
// have is an error from Load; never a panic, and never an allocation the
// size of what the file declares.
func TestLoadRefusesHostileGeometry(t *testing.T) {
	for _, c := range hostileLayers() {
		t.Run(c.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Load(bytes.NewReader(netBytes(c.s)))
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want one saying %q", err, c.want)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
				t.Errorf("allocated %d bytes refusing it", grew)
			}
		})
	}
}

// TestLoadDefersDropoutReplay: a dropout layer's stream position is
// replayed by its first training Forward, not by Load, so a file that
// claims 2^40 draws (hours of replay) loads and scores at once.
func TestLoadDefersDropoutReplay(t *testing.T) {
	net, err := Load(bytes.NewReader(netBytes(deferredDropout()...)))
	if err != nil {
		t.Fatal(err)
	}
	if got := Score(net, []float64{0, 1}); !(got > 0.5) {
		t.Fatalf("score %v, want the second logit ahead", got)
	}
}

// deferredDropout is a dense layer and a dropout layer whose stream
// claims 2^40 draws.
func deferredDropout() []snapshot {
	return []snapshot{
		{Kind: "dense", Ints: []int{2, 2}, Floats: [][]float64{{1, 0, 0, 1}, {0, 0}}},
		{Kind: "dropout", Ints: []int{2}, Seeds: []int64{1, 1 << 40}, Floats: [][]float64{{0.5}}},
	}
}

// TestLoadRejectsWrongVersion: the magic is the format's version, so a
// file of the previous one is refused at it.
func TestLoadRejectsWrongVersion(t *testing.T) {
	if _, err := LoadFile("testdata/golden.net.v1"); !errors.Is(err, framelog.ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}
