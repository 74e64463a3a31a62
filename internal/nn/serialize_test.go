package nn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
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
// payload bit or a torn tail fails before gob sees the bytes.
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

// TestLoadGolden: a network file written at the parent commit (before
// framelog) loads to the weights it was saved from, and saving that
// network again reproduces the file byte for byte, which holds only
// because init pins the format's gob type ids.
func TestLoadGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden.net")
	if err != nil {
		t.Fatal(err)
	}
	net, err := LoadFile("testdata/golden.net")
	if err != nil {
		t.Fatal(err)
	}
	want := ckptNet()
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
		t.Fatal("re-saving the golden network does not reproduce the parent commit's bytes")
	}
}

// TestLoadLegacyRawGob: files written before the frame existed are raw
// gob streams and must still load.
func TestLoadLegacyRawGob(t *testing.T) {
	net := testNet(t)
	var framed bytes.Buffer
	if err := Save(&framed, net); err != nil {
		t.Fatal(err)
	}
	// Reconstruct the legacy encoding: the gob payload without frame.
	var legacy bytes.Buffer
	if err := encodeNet(&legacy, net); err != nil {
		t.Fatal(err)
	}
	if bytes.HasPrefix(legacy.Bytes(), []byte(fileMagic)) {
		t.Fatal("legacy gob stream collides with the frame magic")
	}
	got, err := Load(&legacy)
	if err != nil {
		t.Fatalf("legacy load: %v", err)
	}
	if len(got.Layers) != len(net.Layers) {
		t.Fatalf("legacy layers = %d, want %d", len(got.Layers), len(net.Layers))
	}
}

// TestLoadRejectsWrongVersion: a framed payload with an unknown format
// version is refused after the integrity check.
func TestLoadRejectsWrongVersion(t *testing.T) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(netFile{Version: 99}); err != nil {
		t.Fatal(err)
	}
	_, err := decodeNet(&payload)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("err = %v, want unsupported version", err)
	}
}
