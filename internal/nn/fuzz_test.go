package nn

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"testing"

	"github.com/golitho/hsd/internal/framelog"
)

// fuzzSeedNet trains nothing but exercises every serializable layer
// kind, so corpus seeds cover the full decode surface.
func fuzzSeedNet(f *testing.F) *Network {
	f.Helper()
	net, err := BuildCNN(CNNConfig{
		InC: 2, InH: 8, InW: 8,
		Conv1: 3, Conv2: 4, Hidden: 6,
		DropoutP: 0.2, Seed: 11,
	})
	if err != nil {
		f.Fatal(err)
	}
	return net
}

// goldenPayload is the payload of a testdata golden file under magic.
func goldenPayload(f *testing.F, path, magic string) []byte {
	f.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	payload, err := framelog.ReadFrame(bytes.NewReader(data), magic)
	if err != nil {
		f.Fatal(err)
	}
	return payload
}

// reframe wraps payload in a fresh, CRC-consistent frame. The fuzz
// targets frame their input themselves, so the engine's mutations reach
// the payload decoder and restoreLayer instead of bouncing off the
// checksum; the frame's own damage suite is FuzzReadFrame.
func reframe(magic string, payload []byte) []byte {
	frame := binary.BigEndian.AppendUint64([]byte(magic), uint64(len(payload)))
	frame = binary.BigEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

// FuzzLoadNetwork throws arbitrary payloads at the network loader. Load
// must never panic; accepted inputs must re-save and re-load to the same
// layer count and output width.
func FuzzLoadNetwork(f *testing.F) {
	file, err := newNetFile(fuzzSeedNet(f))
	if err != nil {
		f.Fatal(err)
	}
	valid := payloadOf(netFormat, file)
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // cut mid-payload
	f.Add(valid[:32])
	f.Add(goldenPayload(f, "testdata/golden.net", netFormat.Magic))
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Add([]byte("not a model file"))
	f.Add(payloadOf(netFormat, netFile{}))
	f.Add(valid[:len(valid)-1]) // cut by its last byte
	f.Add(payloadOf(netFormat, netFile{Layers: deferredDropout()}))
	for _, c := range hostileLayers() {
		f.Add(payloadOf(netFormat, netFile{Layers: []snapshot{c.s}}))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		net, err := Load(bytes.NewReader(reframe(netFormat.Magic, data)))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Save(&out, net); err != nil {
			t.Fatalf("accepted network fails to re-save: %v", err)
		}
		again, err := Load(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-saved network fails to re-load: %v", err)
		}
		if len(again.Layers) != len(net.Layers) || again.OutDim() != net.OutDim() {
			t.Fatalf("round trip changed shape: %d/%d layers, %d/%d out",
				len(again.Layers), len(net.Layers), again.OutDim(), net.OutDim())
		}
	})
}
