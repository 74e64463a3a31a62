package nn

import (
	"bytes"
	"encoding/binary"
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
		DropoutP: 0.2, BatchNorm: true, Seed: 11,
	})
	if err != nil {
		f.Fatal(err)
	}
	return net
}

// reframe wraps payload in a fresh, CRC-consistent frame, so the fuzzer
// can reach the gob decoder instead of bouncing off the checksum.
func reframe(magic string, payload []byte) []byte {
	var buf bytes.Buffer
	_ = framelog.WriteFrame(&buf, magic, payload) // a bytes.Buffer write cannot fail
	return buf.Bytes()
}

// FuzzLoadNetwork throws arbitrary bytes at the framed network loader.
// Load must never panic; accepted inputs must re-save and re-load to
// the same layer count and output width.
func FuzzLoadNetwork(f *testing.F) {
	var buf bytes.Buffer
	if err := Save(&buf, fuzzSeedNet(f)); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])       // torn mid-payload
	f.Add(valid[:len(fileMagic)+4])   // torn mid-header
	f.Add([]byte{})                   // empty
	f.Add([]byte("HSDNNv2\n"))        // magic only
	f.Add([]byte("not a model file")) // legacy path: raw gob attempt
	// CRC-consistent frames with hostile payloads reach the gob layer.
	f.Add(reframe(fileMagic, []byte("garbage gob")))
	f.Add(reframe(fileMagic, valid[len(fileMagic)+12:len(fileMagic)+12+32]))
	// Implausible declared size must be rejected before allocation.
	huge := append([]byte(nil), valid[:len(fileMagic)+12]...)
	binary.BigEndian.PutUint64(huge[len(fileMagic):], 1<<40)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		net, err := Load(bytes.NewReader(data))
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

// FuzzLoadCheckpoint does the same for the checkpoint loader, seeded
// with a checkpoint from a real (tiny) training run.
func FuzzLoadCheckpoint(f *testing.F) {
	x, y := [][]float64{{0, 1, 0, 1, 0, 1}, {1, 0, 1, 0, 1, 0}}, []int{0, 1}
	net := NewNetwork(NewDense(6, 4), NewReLU(4), NewDropout(4, 0.2, 5), NewDense(4, 2))
	cfg := TrainConfig{Epochs: 2, BatchSize: 2, Seed: 1, Optimizer: NewAdam(1e-3)}
	hist, err := Fit(net, x, y, cfg)
	if err != nil {
		f.Fatal(err)
	}
	ck, err := captureCheckpoint(net, &cfg, 2, hist)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, ck); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(ckptMagic)+6])
	f.Add([]byte{})
	f.Add([]byte("HSDCKv1\n"))
	f.Add(reframe(ckptMagic, []byte("garbage gob")))
	// A network file is not a checkpoint and vice versa.
	var netBuf bytes.Buffer
	if err := Save(&netBuf, fuzzSeedNet(f)); err != nil {
		f.Fatal(err)
	}
	f.Add(netBuf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		c, err := LoadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := SaveCheckpoint(&out, c); err != nil {
			t.Fatalf("accepted checkpoint fails to re-save: %v", err)
		}
		again, err := LoadCheckpoint(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-saved checkpoint fails to re-load: %v", err)
		}
		if again.Epoch != c.Epoch || again.Seed != c.Seed || len(again.History) != len(c.History) {
			t.Fatal("round trip changed checkpoint identity")
		}
	})
}
