package nn

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"github.com/golitho/hsd/internal/resilience"
	"github.com/golitho/hsd/internal/trace"
)

// ErrNonFinite marks a run halted by a NaN or Inf loss or gradient. The
// halt comes before the poisoned optimizer step, so the network holds
// the weights of the last finite step.
var ErrNonFinite = errors.New("nn: non-finite loss or gradient")

// TrainConfig parameterizes Fit. It is a plain value: each fit builds
// its own optimizer, so any number of fits may share one config.
type TrainConfig struct {
	// Epochs over the training data (default 10).
	Epochs int
	// BatchSize per gradient step (default 32).
	BatchSize int
	// Loss carries the biased-learning epsilon.
	Loss SoftmaxCE
	// Seed drives weight init and shuffling.
	Seed int64
	// Clock drives epoch timing (default the wall clock). Injectable so
	// timing-sensitive tests stay deterministic under parallel execution.
	Clock resilience.Clock
}

func (c *TrainConfig) normalize() {
	if c.Epochs <= 0 {
		c.Epochs = 10
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.Clock == nil {
		c.Clock = resilience.Real
	}
}

// EpochStats records one epoch of training history.
type EpochStats struct {
	Epoch int
	Loss  float64
	Acc   float64
	// Elapsed is the wall-clock time of this epoch; summing it over the
	// history gives the training-time term reported next to ODST.
	Elapsed time.Duration
}

// Fit trains net in place on X (rows) with labels y, returning the
// per-epoch history. Weights are (re)initialized from the seed.
func Fit(net *Network, x [][]float64, y []int, cfg TrainConfig) ([]EpochStats, error) {
	return FitCtx(context.Background(), net, x, y, cfg)
}

// FitCtx is Fit with cooperative cancellation, observed at epoch
// boundaries: a cancelled run returns the history of the epochs it
// completed and an error wrapping ctx.Err(). A non-finite loss or
// gradient halts the run before the poisoned optimizer step and returns
// ErrNonFinite. A fit is a pure function of its inputs and config, so
// the way to finish an interrupted one is to run it again.
func FitCtx(ctx context.Context, net *Network, x [][]float64, y []int, cfg TrainConfig) ([]EpochStats, error) {
	n := len(x)
	if n == 0 || len(y) != n {
		return nil, fmt.Errorf("nn: bad training set: %d samples, %d labels", n, len(y))
	}
	dim := len(x[0])
	for i := range x {
		if len(x[i]) != dim {
			return nil, fmt.Errorf("nn: sample %d has dim %d, want %d", i, len(x[i]), dim)
		}
		if y[i] != 0 && y[i] != 1 {
			return nil, fmt.Errorf("nn: label %d at sample %d (want 0/1)", y[i], i)
		}
	}
	if net.OutDim() != 2 {
		return nil, errors.New("nn: network must end with 2 logits")
	}
	cfg.normalize()
	// Layers fill their training scratch on the first step; it is this
	// call's, and goes when the call returns (see scratch.go).
	defer net.dropScratch()
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	net.Init(rng)

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// The parameter slice and the batch buffers serve every step: rows
	// holds the batch's samples, which forwardRows copies into a matrix
	// only when the network does not border them itself.
	params := net.Params()
	opt := newAdam(params)
	rows := make([][]float64, min(cfg.BatchSize, n))
	yb := make([]int, len(rows))
	var history []EpochStats
	// halt stops the run on a non-finite value: the epoch's span
	// carries err, and err is returned.
	halt := func(span *trace.Span, err error) ([]EpochStats, error) {
		span.SetError(err)
		span.End()
		return history, err
	}
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return history, fmt.Errorf("nn: training cancelled before epoch %d: %w", epoch, err)
		}
		epochStart := cfg.Clock.Now()
		_, span := trace.Start(ctx, "train.epoch")
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		var lossSum float64
		correct, batches := 0, 0
		for start := 0; start < n; start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > n {
				end = n
			}
			bs := end - start
			rows, yb = rows[:bs], yb[:bs]
			for i := range rows {
				rows[i], yb[i] = x[order[start+i]], y[order[start+i]]
			}
			logits := net.forwardRows(rows)
			loss, grad, c := cfg.Loss.Loss(logits, yb)
			if math.IsNaN(loss) || math.IsInf(loss, 0) {
				return halt(span, fmt.Errorf("%w: loss=%v at epoch %d batch %d",
					ErrNonFinite, loss, epoch, batches))
			}
			for _, p := range params {
				p.G.Zero()
			}
			net.backwardLayers(grad)
			if err := applyGrads(net, opt, params); err != nil {
				return halt(span, fmt.Errorf("%w at epoch %d batch %d", err, epoch, batches))
			}
			lossSum += loss
			correct += c
			batches++
		}
		st := EpochStats{
			Epoch:   epoch,
			Loss:    lossSum / float64(batches),
			Acc:     float64(correct) / float64(n),
			Elapsed: cfg.Clock.Now().Sub(epochStart),
		}
		history = append(history, st)
		if span != nil {
			span.SetAttrInt("epoch", epoch)
			span.SetAttrInt("batches", batches)
			span.SetAttrInt("samples", n)
			span.SetAttr("loss", strconv.FormatFloat(st.Loss, 'g', 6, 64))
			span.SetAttr("acc", strconv.FormatFloat(st.Acc, 'g', 6, 64))
			span.End()
		}
	}
	return history, nil
}

// applyGrads ends a step whose backward passes have run: the gradient
// pass (Network.finishGrads), then, only if every gradient is finite,
// the Adam step. A non-finite gradient leaves every parameter and
// moment as it was and is reported as ErrNonFinite naming the lowest
// parameter index that holds one.
func applyGrads(net *Network, opt *adam, params []*Param) error {
	if pi, bad := net.finishGrads(); bad {
		return fmt.Errorf("%w: gradient of param %d", ErrNonFinite, pi)
	}
	opt.step(params)
	return nil
}

// Score returns the hotspot probability of a single sample: one row
// through ForwardBatch on a pooled arena, softmax in place. It reads the
// network and writes only the arena, so any number of goroutines may
// score through one Network, and in steady state it allocates nothing.
// The result is bit-identical to the sample's PredictBatch score.
func Score(net *Network, x []float64) float64 {
	ar := getArena()
	// Deferred so that a layer panic (an input of the wrong width) hands
	// the arena back rewound rather than mid-pass.
	defer putArena(ar)
	xb := ar.get(1, len(x))
	copy(xb.Data, x)
	logits := net.ForwardBatch(xb, ar)
	logits.SoftmaxRows()
	return logits.At(0, 1)
}

// ScoreConvSums is Score for a caller that holds the sums of net's first
// convolution (FirstConv) over the sample, bias not yet added and each
// channel transposed, as SumRows leaves them over a transposed plane. It
// runs the bias + ReLU + pool pass over them and the network from layer
// 3, so given the sums Score forms, it returns Score's bits. It panics
// when net does not open with a FirstConv.
func ScoreConvSums(net *Network, sumsT []float64) float64 {
	c := net.FirstConv()
	ar := getArena()
	defer putArena(ar)
	pooled := ar.get(1, c.OutDim()/4)
	c.biasReLUPoolTransposed(sumsT[:c.OutDim()], pooled.Data)
	logits := net.forwardFrom(3, pooled, ar)
	logits.SoftmaxRows()
	return logits.At(0, 1)
}

// BuildMLP assembles in -> hidden... -> 2 with ReLU activations, the
// shallow artificial-neural-network baseline.
func BuildMLP(in int, hidden ...int) *Network {
	var layers []Layer
	prev := in
	for _, h := range hidden {
		layers = append(layers, NewDense(prev, h), NewReLU(h))
		prev = h
	}
	layers = append(layers, NewDense(prev, 2))
	return NewNetwork(layers...)
}

// CNNConfig describes the hotspot CNN topology over a (C, H, W) feature
// tensor input.
type CNNConfig struct {
	InC, InH, InW int
	// Conv1 and Conv2 are output channel counts of the two 3x3 conv
	// stages (each followed by ReLU and 2x2 max pooling).
	Conv1, Conv2 int
	// Hidden is the fully connected width before the 2-logit head.
	Hidden int
	// DropoutP > 0 inserts dropout before the head.
	DropoutP float64
	// Seed drives dropout randomness.
	Seed int64
}

// BuildCNN assembles conv-relu-pool x2 -> dense -> relu -> [dropout] ->
// dense(2). Input height/width must be divisible by 4.
func BuildCNN(cfg CNNConfig) (*Network, error) {
	if cfg.InH%4 != 0 || cfg.InW%4 != 0 {
		return nil, fmt.Errorf("nn: CNN input %dx%d must be divisible by 4", cfg.InH, cfg.InW)
	}
	if cfg.InC <= 0 || cfg.Conv1 <= 0 || cfg.Conv2 <= 0 || cfg.Hidden <= 0 {
		return nil, fmt.Errorf("nn: CNN config has nonpositive sizes: %+v", cfg)
	}
	conv1 := NewConv2D(cfg.InC, cfg.InH, cfg.InW, cfg.Conv1, 3, 1)
	h2, w2 := cfg.InH/2, cfg.InW/2
	conv2 := NewConv2D(cfg.Conv1, h2, w2, cfg.Conv2, 3, 1)
	flat := cfg.Conv2 * (h2 / 2) * (w2 / 2)
	layers := []Layer{
		conv1, NewReLU(conv1.OutDim()), NewMaxPool2D(cfg.Conv1, cfg.InH, cfg.InW, 2),
		conv2, NewReLU(conv2.OutDim()), NewMaxPool2D(cfg.Conv2, h2, w2, 2),
		NewDense(flat, cfg.Hidden), NewReLU(cfg.Hidden),
	}
	if cfg.DropoutP > 0 {
		layers = append(layers, NewDropout(cfg.Hidden, cfg.DropoutP, cfg.Seed+99))
	}
	layers = append(layers, NewDense(cfg.Hidden, 2))
	return NewNetwork(layers...), nil
}
