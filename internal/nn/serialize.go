package nn

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"github.com/golitho/hsd/internal/framelog"
)

// snapshot is the serialized form of one layer: a kind tag plus the
// integer geometry and float payloads needed to reconstruct it.
type snapshot struct {
	Kind   string
	Ints   []int
	Seeds  []int64
	Floats [][]float64
}

const formatVersion = 1

type netFile struct {
	Version int
	Layers  []snapshot
}

// init pins the gob wire-type ids of the network file format. Gob
// allocates type ids from a process-global counter in first-encode
// order, so without this the exact bytes of a saved network depend on
// what else the process happened to gob-encode earlier (journal
// records, WAL replay, checkpoints). Encoding a zero netFile here
// allocates the format's ids at a fixed point — package init, before
// any runtime traffic — which is what makes "a resumed run ships a
// byte-identical model" hold across processes with different
// histories.
func init() {
	_ = gob.NewEncoder(io.Discard).Encode(netFile{Layers: []snapshot{{}}})
}

// fileMagic opens the framed network file format (DESIGN.md "On-disk
// formats"). Files written before the frame existed are raw gob
// streams; Load still accepts those.
const fileMagic = "HSDNNv2\n"

// Save serializes the network's architecture and weights as one
// framelog frame, so Load rejects truncated or bit-flipped files
// instead of reconstructing garbage weights. Save does not mutate the
// network: saving the same state twice produces identical bytes.
func Save(w io.Writer, net *Network) error {
	var payload bytes.Buffer
	if err := encodeNet(&payload, net); err != nil {
		return err
	}
	return framelog.WriteFrame(w, fileMagic, payload.Bytes())
}

// snapshotLayer captures one layer without mutating it; the shared
// serialization of the network and checkpoint formats.
func snapshotLayer(l Layer) (snapshot, error) {
	switch v := l.(type) {
	case *Dense:
		return snapshot{Kind: "dense", Ints: []int{v.In, v.Out},
			Floats: [][]float64{append([]float64(nil), v.W.Data...), append([]float64(nil), v.B...)}}, nil
	case *ReLU:
		return snapshot{Kind: "relu", Ints: []int{v.Dim}}, nil
	case *Dropout:
		// (seed, draws) reconstructs the RNG stream position exactly,
		// so a restored layer continues the same dropout sequence.
		return snapshot{Kind: "dropout", Ints: []int{v.Dim},
			Seeds: []int64{v.seed, v.draws}, Floats: [][]float64{{v.P}}}, nil
	case *Conv2D:
		return snapshot{Kind: "conv2d",
			Ints:   []int{v.InC, v.InH, v.InW, v.OutC, v.K, v.Stride, v.Pad},
			Floats: [][]float64{append([]float64(nil), v.W.Data...), append([]float64(nil), v.B...)}}, nil
	case *MaxPool2D:
		return snapshot{Kind: "maxpool2d", Ints: []int{v.C, v.H, v.W, v.Size}}, nil
	case *BatchNorm:
		return snapshot{Kind: "batchnorm", Ints: []int{v.Dim},
			Floats: [][]float64{
				append([]float64(nil), v.Gamma...),
				append([]float64(nil), v.Beta...),
				append([]float64(nil), v.RunMean...),
				append([]float64(nil), v.RunVar...),
				{v.Eps, v.Momentum},
			}}, nil
	default:
		return snapshot{}, fmt.Errorf("nn: cannot serialize layer %T", l)
	}
}

func snapshotNet(net *Network) ([]snapshot, error) {
	out := make([]snapshot, 0, len(net.Layers))
	for _, l := range net.Layers {
		s, err := snapshotLayer(l)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func encodeNet(w io.Writer, net *Network) error {
	layers, err := snapshotNet(net)
	if err != nil {
		return err
	}
	file := netFile{Version: formatVersion, Layers: layers}
	if err := gob.NewEncoder(w).Encode(file); err != nil {
		return fmt.Errorf("nn: encode network: %w", err)
	}
	return nil
}

// Load reconstructs a network saved with Save. Framed files are
// integrity-checked first: a truncated or corrupted file fails with a
// clear error instead of yielding garbage weights. Legacy raw-gob files
// (written before the frame existed) are still accepted.
func Load(r io.Reader) (*Network, error) {
	br := bufio.NewReader(r)
	if head, err := br.Peek(len(fileMagic)); err == nil && string(head) == fileMagic {
		payload, err := framelog.ReadFrame(br, fileMagic)
		if err != nil {
			return nil, fmt.Errorf("nn: network file: %w", err)
		}
		return decodeNet(bytes.NewReader(payload))
	}
	return decodeNet(br)
}

// SaveFile writes the network to path crash-safely (temp file, fsync,
// atomic rename).
func SaveFile(path string, net *Network) error {
	return framelog.WriteFileAtomic(path, func(w io.Writer) error { return Save(w, net) })
}

// LoadFile reads a network from path with the integrity checks of Load.
func LoadFile(path string) (*Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("nn: open network file: %w", err)
	}
	defer f.Close()
	net, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("nn: load %s: %w", path, err)
	}
	return net, nil
}

func decodeNet(r io.Reader) (*Network, error) {
	var file netFile
	if err := gob.NewDecoder(r).Decode(&file); err != nil {
		return nil, fmt.Errorf("nn: decode network: %w", err)
	}
	if file.Version != formatVersion {
		return nil, fmt.Errorf("nn: unsupported format version %d", file.Version)
	}
	net := &Network{}
	for i, s := range file.Layers {
		l, err := restoreLayer(s)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d: %w", i, err)
		}
		net.Layers = append(net.Layers, l)
	}
	return net, nil
}

func restoreLayer(s snapshot) (Layer, error) {
	switch s.Kind {
	case "dense":
		if len(s.Ints) != 2 || len(s.Floats) != 2 {
			return nil, fmt.Errorf("malformed dense snapshot")
		}
		d := NewDense(s.Ints[0], s.Ints[1])
		if len(s.Floats[0]) != len(d.W.Data) || len(s.Floats[1]) != len(d.B) {
			return nil, fmt.Errorf("dense weight size mismatch")
		}
		copy(d.W.Data, s.Floats[0])
		copy(d.B, s.Floats[1])
		return d, nil
	case "relu":
		if len(s.Ints) != 1 {
			return nil, fmt.Errorf("malformed relu snapshot")
		}
		return NewReLU(s.Ints[0]), nil
	case "dropout":
		// One seed is the legacy form (a fresh stream); two is
		// (seed, draws), the exact RNG state for resumable training.
		if len(s.Ints) != 1 || len(s.Seeds) < 1 || len(s.Seeds) > 2 ||
			len(s.Floats) != 1 || len(s.Floats[0]) != 1 {
			return nil, fmt.Errorf("malformed dropout snapshot")
		}
		d := NewDropout(s.Ints[0], s.Floats[0][0], s.Seeds[0])
		if len(s.Seeds) == 2 {
			if s.Seeds[1] < 0 || s.Seeds[1] > 1<<40 {
				return nil, fmt.Errorf("implausible dropout draw count %d", s.Seeds[1])
			}
			d.fastForward(s.Seeds[1])
		}
		return d, nil
	case "conv2d":
		if len(s.Ints) != 7 || len(s.Floats) != 2 {
			return nil, fmt.Errorf("malformed conv2d snapshot")
		}
		c := NewConv2D(s.Ints[0], s.Ints[1], s.Ints[2], s.Ints[3], s.Ints[4], s.Ints[5], s.Ints[6])
		if len(s.Floats[0]) != len(c.W.Data) || len(s.Floats[1]) != len(c.B) {
			return nil, fmt.Errorf("conv2d weight size mismatch")
		}
		copy(c.W.Data, s.Floats[0])
		copy(c.B, s.Floats[1])
		return c, nil
	case "maxpool2d":
		if len(s.Ints) != 4 {
			return nil, fmt.Errorf("malformed maxpool2d snapshot")
		}
		return NewMaxPool2D(s.Ints[0], s.Ints[1], s.Ints[2], s.Ints[3]), nil
	case "batchnorm":
		if len(s.Ints) != 1 || len(s.Floats) != 5 || len(s.Floats[4]) != 2 {
			return nil, fmt.Errorf("malformed batchnorm snapshot")
		}
		bn := NewBatchNorm(s.Ints[0])
		if len(s.Floats[0]) != bn.Dim {
			return nil, fmt.Errorf("batchnorm size mismatch")
		}
		copy(bn.Gamma, s.Floats[0])
		copy(bn.Beta, s.Floats[1])
		copy(bn.RunMean, s.Floats[2])
		copy(bn.RunVar, s.Floats[3])
		bn.Eps, bn.Momentum = s.Floats[4][0], s.Floats[4][1]
		return bn, nil
	default:
		return nil, fmt.Errorf("unknown layer kind %q", s.Kind)
	}
}
