package nn

import (
	"fmt"
	"io"

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

type netFile struct {
	Layers []snapshot
}

// netFormat is the network file (DESIGN.md "On-disk formats"): one
// framelog frame, so Load rejects truncated or bit-flipped files instead
// of reconstructing garbage weights. The magic is the format's version.
var netFormat = framelog.File[netFile]{Magic: "HSDNNv3\n"}

// Save serializes the network's architecture and weights. Save does not
// mutate the network: saving the same state twice produces identical
// bytes.
func Save(w io.Writer, net *Network) error {
	file, err := newNetFile(net)
	if err != nil {
		return err
	}
	return netFormat.Write(w, file)
}

// snapshotLayer captures one layer without mutating it.
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
		// Ints[5] is the stride, always 1; it stays so saved bytes do not move.
		return snapshot{Kind: "conv2d",
			Ints:   []int{v.InC, v.InH, v.InW, v.OutC, v.K, 1, v.Pad},
			Floats: [][]float64{append([]float64(nil), v.W.Data...), append([]float64(nil), v.B...)}}, nil
	case *MaxPool2D:
		return snapshot{Kind: "maxpool2d", Ints: []int{v.C, v.H, v.W, v.Size}}, nil
	default:
		return snapshot{}, fmt.Errorf("nn: cannot serialize layer %T", l)
	}
}

func newNetFile(net *Network) (netFile, error) {
	layers := make([]snapshot, 0, len(net.Layers))
	for _, l := range net.Layers {
		s, err := snapshotLayer(l)
		if err != nil {
			return netFile{}, err
		}
		layers = append(layers, s)
	}
	return netFile{Layers: layers}, nil
}

// Load reconstructs a network saved with Save. The frame is
// integrity-checked first: a truncated, corrupted or unframed file fails
// with a clear error instead of yielding garbage weights.
func Load(r io.Reader) (*Network, error) {
	file, err := netFormat.Read(r)
	if err != nil {
		return nil, fmt.Errorf("nn: network file: %w", err)
	}
	return file.network()
}

// SaveFile writes the network to path crash-safely (temp file, fsync,
// atomic rename).
func SaveFile(path string, net *Network) error {
	file, err := newNetFile(net)
	if err != nil {
		return err
	}
	return netFormat.Save(path, file)
}

// LoadFile reads a network from path with the integrity checks of Load.
func LoadFile(path string) (*Network, error) {
	file, err := netFormat.Load(path)
	if err != nil {
		return nil, fmt.Errorf("nn: %w", err)
	}
	net, err := file.network()
	if err != nil {
		return nil, fmt.Errorf("nn: load %s: %w", path, err)
	}
	return net, nil
}

// network rebuilds the network a decoded file describes.
func (file netFile) network() (*Network, error) {
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

// maxWidth bounds the per-sample width, in elements, that a snapshot may
// declare for a layer's input or output; the zoo CNN's widest is 4 096.
// What a layer allocates at load beyond its payload (a convolution's row
// tables) is sized by these widths.
const maxWidth = 1 << 20

// product multiplies dims, each of which must be positive, and reports
// whether the product stays within limit. It never overflows.
func product(limit int, dims ...int) (int, bool) {
	p := 1
	for _, d := range dims {
		if d <= 0 || d > limit/p {
			return 0, false
		}
		p *= d
	}
	return p, true
}

// fits reports whether dims are positive and their product is at most
// maxWidth.
func fits(dims ...int) bool {
	_, ok := product(maxWidth, dims...)
	return ok
}

// payloadIs reports whether f holds exactly the product of dims, which
// must be positive.
func payloadIs(f []float64, dims ...int) bool {
	n, ok := product(len(f), dims...)
	return ok && n == len(f)
}

// restoreLayer rebuilds one layer from its snapshot. Every geometry int
// is checked before a constructor sees it and every payload length
// against the geometry, so a hostile file is an error, never a panic,
// and what a layer allocates is bounded by its payload and maxWidth.
func restoreLayer(s snapshot) (Layer, error) {
	switch s.Kind {
	case "dense":
		if len(s.Ints) != 2 || len(s.Floats) != 2 {
			return nil, fmt.Errorf("malformed dense snapshot")
		}
		in, out := s.Ints[0], s.Ints[1]
		if !payloadIs(s.Floats[0], in, out) || !payloadIs(s.Floats[1], out) {
			return nil, fmt.Errorf("dense %dx%d: weight size mismatch", in, out)
		}
		d := NewDense(in, out)
		copy(d.W.Data, s.Floats[0])
		copy(d.B, s.Floats[1])
		return d, nil
	case "relu":
		if len(s.Ints) != 1 {
			return nil, fmt.Errorf("malformed relu snapshot")
		}
		if !fits(s.Ints[0]) {
			return nil, fmt.Errorf("relu width %d out of range", s.Ints[0])
		}
		return NewReLU(s.Ints[0]), nil
	case "dropout":
		// One seed is the legacy form (a fresh stream); two is
		// (seed, draws), the exact RNG state of the saved layer.
		if len(s.Ints) != 1 || len(s.Seeds) < 1 || len(s.Seeds) > 2 ||
			len(s.Floats) != 1 || len(s.Floats[0]) != 1 {
			return nil, fmt.Errorf("malformed dropout snapshot")
		}
		if !fits(s.Ints[0]) {
			return nil, fmt.Errorf("dropout width %d out of range", s.Ints[0])
		}
		d := NewDropout(s.Ints[0], s.Floats[0][0], s.Seeds[0])
		if len(s.Seeds) == 2 {
			if s.Seeds[1] < 0 || s.Seeds[1] > 1<<40 {
				return nil, fmt.Errorf("implausible dropout draw count %d", s.Seeds[1])
			}
			d.draws = s.Seeds[1]
		}
		return d, nil
	case "conv2d":
		if len(s.Ints) != 7 || len(s.Floats) != 2 {
			return nil, fmt.Errorf("malformed conv2d snapshot")
		}
		inC, inH, inW, outC, k, stride, pad := s.Ints[0], s.Ints[1], s.Ints[2], s.Ints[3], s.Ints[4], s.Ints[5], s.Ints[6]
		if stride != 1 {
			return nil, fmt.Errorf("conv2d stride %d: only stride 1 is supported", stride)
		}
		// pad <= maxWidth keeps inH+2*pad from overflowing.
		if !fits(inC, inH, inW) || k <= 0 || pad < 0 || pad > maxWidth ||
			k > inH+2*pad || k > inW+2*pad || !fits(outC, inH+2*pad-k+1, inW+2*pad-k+1) {
			return nil, fmt.Errorf("conv2d %dx%dx%d->%d k=%d p=%d: implausible geometry", inC, inH, inW, outC, k, pad)
		}
		if !payloadIs(s.Floats[0], outC, inC, k, k) || !payloadIs(s.Floats[1], outC) {
			return nil, fmt.Errorf("conv2d weight size mismatch")
		}
		c := NewConv2D(inC, inH, inW, outC, k, pad)
		copy(c.W.Data, s.Floats[0])
		copy(c.B, s.Floats[1])
		return c, nil
	case "maxpool2d":
		if len(s.Ints) != 4 {
			return nil, fmt.Errorf("malformed maxpool2d snapshot")
		}
		ch, h, w, size := s.Ints[0], s.Ints[1], s.Ints[2], s.Ints[3]
		if !fits(ch, h, w) || size <= 0 || h%size != 0 || w%size != 0 {
			return nil, fmt.Errorf("maxpool2d %dx%dx%d size %d: implausible geometry", ch, h, w, size)
		}
		return NewMaxPool2D(ch, h, w, size), nil
	default:
		return nil, fmt.Errorf("unknown layer kind %q", s.Kind)
	}
}
