package nn

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"github.com/golitho/hsd/internal/faultinject"
	"github.com/golitho/hsd/internal/resilience"
	"github.com/golitho/hsd/internal/tensor"
	"github.com/golitho/hsd/internal/trace"
)

// TrainEpochSite is the fault-injection site hit at the top of every
// training epoch, so chaos tests can kill a run at a chosen epoch.
const TrainEpochSite = "nn.train.epoch"

// ErrInterrupted marks a run halted by context cancellation (SIGTERM,
// deadline). The returned history is valid up to the halt, and a final
// checkpoint has been cut when a Checkpointer is configured.
var ErrInterrupted = errors.New("nn: training interrupted")

// ErrNonFinite marks a run halted by a NaN or Inf loss or gradient.
// The in-memory network is poisoned, but the last end-of-epoch
// checkpoint was persisted before returning, so no good state is lost.
var ErrNonFinite = errors.New("nn: non-finite loss or gradient")

// TrainConfig parameterizes Fit. It is a plain value: each fit builds
// its own optimizer, so any number of fits may share one config.
type TrainConfig struct {
	// Epochs over the training data (default 10).
	Epochs int
	// BatchSize per gradient step (default 32).
	BatchSize int
	// LR is Adam's learning rate (default 1e-3).
	LR float64
	// Loss carries the biased-learning epsilon.
	Loss SoftmaxCE
	// Seed drives weight init and shuffling.
	Seed int64
	// Clock drives epoch timing (default the wall clock). Injectable so
	// timing-sensitive tests stay deterministic under parallel execution.
	Clock resilience.Clock

	// Checkpointer, when non-nil, persists a checkpoint every
	// CheckpointEvery epochs, after the final epoch, and on any halt
	// (cancellation or non-finite guard). A checkpoint save error halts
	// training: a run that silently cannot checkpoint is not
	// crash-tolerant.
	Checkpointer Checkpointer
	// CheckpointEvery is the persist cadence in epochs (default 1).
	CheckpointEvery int
	// Resume continues a run from a checkpoint instead of epoch 1. The
	// config must match the original run (same data, seed, learning
	// rate, epochs); Seed and LR mismatches are rejected, the rest is
	// the caller's contract. The continuation is bit-identical to an
	// uninterrupted run: weights, Adam's moments and step count, and the
	// dropout RNG come from the checkpoint, and the train-loop RNG is
	// replayed to its position at the checkpoint.
	Resume *Checkpoint
}

func (c *TrainConfig) normalize() {
	if c.Epochs <= 0 {
		c.Epochs = 10
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.LR <= 0 {
		c.LR = 1e-3
	}
	if c.Clock == nil {
		c.Clock = resilience.Real
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 1
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

// persistCheckpoint writes c through the configured Checkpointer under
// a train.checkpoint span.
func persistCheckpoint(ctx context.Context, cfg *TrainConfig, c *Checkpoint) error {
	if cfg.Checkpointer == nil || c == nil {
		return nil
	}
	_, sp := trace.Start(ctx, "train.checkpoint")
	sp.SetAttrInt("epoch", c.Epoch)
	err := cfg.Checkpointer.SaveCheckpoint(c)
	if err != nil {
		sp.SetError(err)
	}
	sp.End()
	if err != nil {
		return fmt.Errorf("nn: checkpoint at epoch %d: %w", c.Epoch, err)
	}
	return nil
}

// nonFiniteGrad reports the first parameter holding a NaN or Inf
// gradient, if any.
func nonFiniteGrad(params []*Param) (int, bool) {
	for i, p := range params {
		for _, g := range p.G.Data {
			if math.IsNaN(g) || math.IsInf(g, 0) {
				return i, true
			}
		}
	}
	return 0, false
}

// FitCtx is Fit with cooperative interruption, crash tolerance, and
// resume. Cancellation is observed at epoch boundaries: the run cuts a
// final checkpoint and returns the history so far with ErrInterrupted.
// Non-finite losses or gradients halt the run before the poisoned
// optimizer step, persist the last good end-of-epoch checkpoint, and
// return ErrNonFinite. A run resumed from any of those checkpoints via
// cfg.Resume continues bit-identically to an uninterrupted run.
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
	shuffle := func() {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	}

	startEpoch := 0
	var history []EpochStats
	// lastGood is the newest end-of-epoch snapshot; halts persist it so
	// an interrupted or NaN-poisoned run never loses completed work.
	var lastGood *Checkpoint
	var opt *adam
	if cfg.Resume != nil {
		r := cfg.Resume
		if r.Epoch > cfg.Epochs {
			return nil, fmt.Errorf("nn: checkpoint is at epoch %d, config trains only %d", r.Epoch, cfg.Epochs)
		}
		var err error
		if opt, err = r.apply(net, &cfg); err != nil {
			return nil, err
		}
		// Replay the train loop's RNG-dependent state to its position
		// at the checkpoint. Init above consumed the same draws as the
		// original run's Init; replaying the per-epoch shuffles (whose
		// permutations compose across epochs) restores both the RNG
		// stream position and the order slice, so neither needs to be
		// stored in the checkpoint.
		for e := 0; e < r.Epoch; e++ {
			shuffle()
		}
		history = append([]EpochStats(nil), r.History...)
		startEpoch = r.Epoch
		lastGood = r
	}
	// Resume replaces the layers, so the parameters are collected after
	// it; the slice and the batch buffers serve every step of the fit.
	params := net.Params()
	if opt == nil {
		opt = newAdam(cfg.LR, params)
	}
	xb := tensor.NewMatrix(min(cfg.BatchSize, n), dim)
	yb := make([]int, xb.Rows)
	// halt stops the run on a non-finite value: the epoch's span carries
	// err, the last good checkpoint is persisted, err is returned.
	halt := func(span *trace.Span, err error) ([]EpochStats, error) {
		span.SetError(err)
		span.End()
		if perr := persistCheckpoint(ctx, &cfg, lastGood); perr != nil {
			return history, perr
		}
		return history, err
	}
	for epoch := startEpoch + 1; epoch <= cfg.Epochs; epoch++ {
		if cerr := ctx.Err(); cerr != nil {
			if err := persistCheckpoint(ctx, &cfg, lastGood); err != nil {
				return history, err
			}
			return history, fmt.Errorf("%w before epoch %d: %v", ErrInterrupted, epoch, cerr)
		}
		if err := faultinject.Hit(TrainEpochSite); err != nil {
			// Simulated crash: return immediately with no final
			// checkpoint, exactly what a kill -9 leaves behind.
			return history, err
		}
		epochStart := cfg.Clock.Now()
		_, span := trace.Start(ctx, "train.epoch")
		shuffle()
		var lossSum float64
		correct, batches := 0, 0
		for start := 0; start < n; start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > n {
				end = n
			}
			bs := end - start
			xb, yb = sized(xb, bs, dim), yb[:bs]
			for i := 0; i < bs; i++ {
				copy(xb.Row(i), x[order[start+i]])
				yb[i] = y[order[start+i]]
			}
			logits := net.Forward(xb)
			loss, grad, c := cfg.Loss.Loss(logits, yb)
			if math.IsNaN(loss) || math.IsInf(loss, 0) {
				return halt(span, fmt.Errorf("%w: loss=%v at epoch %d batch %d%s",
					ErrNonFinite, loss, epoch, batches, lastGoodNote(lastGood)))
			}
			for _, p := range params {
				p.G.Zero()
			}
			net.Backward(grad)
			if pi, bad := nonFiniteGrad(params); bad {
				return halt(span, fmt.Errorf("%w: gradient of param %d at epoch %d batch %d%s",
					ErrNonFinite, pi, epoch, batches, lastGoodNote(lastGood)))
			}
			opt.step(params)
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
		if cfg.Checkpointer != nil {
			c, err := captureCheckpoint(net, opt, cfg.Seed, epoch, history)
			if err != nil {
				return history, err
			}
			lastGood = c
			if epoch%cfg.CheckpointEvery == 0 || epoch == cfg.Epochs {
				if err := persistCheckpoint(ctx, &cfg, c); err != nil {
					return history, err
				}
			}
		}
	}
	return history, nil
}

// lastGoodNote describes the preserved checkpoint in halt errors.
func lastGoodNote(c *Checkpoint) string {
	if c == nil {
		return " (no checkpoint configured)"
	}
	return fmt.Sprintf(" (last good checkpoint: epoch %d)", c.Epoch)
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
