package core

import (
	"context"
	"fmt"
	"time"

	"github.com/golitho/hsd/internal/iccad"
	"github.com/golitho/hsd/internal/lithosim"
	"github.com/golitho/hsd/internal/metrics"
	"github.com/golitho/hsd/internal/trace"
)

// EvalOptions controls Evaluate.
type EvalOptions struct {
	// Sim, when non-nil, is used to verify flagged clips with lithography
	// simulation so ODST reflects real verification cost. When nil, the
	// verification term of ODST is zero.
	Sim *lithosim.Simulator
	// Augment is applied to the training split before fitting.
	Augment AugmentConfig
}

// Result is one detector-on-benchmark evaluation in the contest protocol.
type Result struct {
	Detector  string
	Benchmark string

	Confusion metrics.Confusion
	// AUC of the score sweep (NaN-free; 0 when not computable).
	AUC float64
	// Scores and Labels retain the per-clip outputs for ROC plotting.
	Scores []float64
	Labels []int

	TrainTime time.Duration
	// InferTime is the pure detector runtime over the test split.
	InferTime time.Duration
	// VerifyTime is the lithography-simulation time spent on flagged clips.
	VerifyTime time.Duration
	// FullSimTime estimates simulating every test clip (the no-ML flow).
	FullSimTime time.Duration
}

// ODST is the overall detection and simulation time: detector inference
// plus verification of flagged clips.
func (r Result) ODST() time.Duration { return r.InferTime + r.VerifyTime }

// Speedup is the ODST advantage over simulating everything.
func (r Result) Speedup() float64 {
	o := r.ODST()
	if o <= 0 {
		return 0
	}
	return float64(r.FullSimTime) / float64(o)
}

// Accuracy is the contest accuracy (hotspot recall).
func (r Result) Accuracy() float64 { return r.Confusion.Accuracy() }

// FalseAlarms is the contest false-alarm count.
func (r Result) FalseAlarms() int { return r.Confusion.FalseAlarms() }

// FromSamples converts generator output into evaluation clips.
func FromSamples(samples []iccad.Sample) []LabeledClip {
	out := make([]LabeledClip, len(samples))
	for i, s := range samples {
		out[i] = LabeledClip{Clip: s.Clip, Hotspot: s.Hotspot}
	}
	return out
}

// Evaluate trains det on the training split and measures it on the test
// split under the ICCAD-2012 protocol.
func Evaluate(det Detector, benchName string, train, test []LabeledClip, opt EvalOptions) (Result, error) {
	return EvaluateCtx(context.Background(), det, benchName, train, test, opt)
}

// EvaluateCtx is Evaluate with trace attribution: the run becomes an
// "eval" span whose "fit", "score", and "verify" children decompose the
// reported ODST terms directly — InferTime is the "score" span,
// VerifyTime the "verify" span, with the per-clip pipeline spans nested
// inside each.
func EvaluateCtx(ctx context.Context, det Detector, benchName string, train, test []LabeledClip, opt EvalOptions) (Result, error) {
	if len(train) == 0 || len(test) == 0 {
		return Result{}, fmt.Errorf("core: evaluate %s/%s: empty split", det.Name(), benchName)
	}
	res := Result{Detector: det.Name(), Benchmark: benchName}
	ectx, esp := trace.Start(ctx, "eval",
		trace.A("detector", det.Name()), trace.A("benchmark", benchName))
	defer esp.End()

	fitSet := AugmentMinority(train, opt.Augment)
	t0 := time.Now()
	fctx, fitSp := trace.Start(ectx, "fit")
	fitSp.SetAttrInt("samples", len(fitSet))
	err := FitClipsCtx(fctx, det, fitSet)
	fitSp.SetError(err)
	fitSp.End()
	if err != nil {
		return Result{}, fmt.Errorf("core: fit %s on %s: %w", det.Name(), benchName, err)
	}
	res.TrainTime = time.Since(t0)

	res.Scores = make([]float64, len(test))
	res.Labels = make([]int, len(test))
	flagged := make([]bool, len(test))
	t1 := time.Now()
	sctx, scoreSp := trace.Start(ectx, "score")
	scoreSp.SetAttrInt("samples", len(test))
	for i, s := range test {
		score, err := det.Score(sctx, s.Clip)
		if err != nil {
			scoreSp.SetError(err)
			scoreSp.End()
			return Result{}, fmt.Errorf("core: score %s sample %d: %w", det.Name(), i, err)
		}
		res.Scores[i] = score
		if s.Hotspot {
			res.Labels[i] = 1
		}
		flagged[i] = score >= det.Threshold()
	}
	scoreSp.End()
	res.InferTime = time.Since(t1)
	for i, s := range test {
		res.Confusion.Add(flagged[i], s.Hotspot)
	}

	if _, auc, err := metrics.ROC(res.Scores, res.Labels); err == nil {
		res.AUC = auc
	}

	if opt.Sim != nil {
		nFlagged := 0
		t2 := time.Now()
		vctx, verifySp := trace.Start(ectx, "verify")
		for i, s := range test {
			if !flagged[i] {
				continue
			}
			nFlagged++
			if _, err := opt.Sim.SimulateCtx(vctx, s.Clip); err != nil {
				verifySp.SetError(err)
				verifySp.End()
				return Result{}, fmt.Errorf("core: verify sample %d: %w", i, err)
			}
		}
		verifySp.SetAttrInt("flagged", nFlagged)
		verifySp.End()
		res.VerifyTime = time.Since(t2)
		if nFlagged > 0 {
			perClip := res.VerifyTime / time.Duration(nFlagged)
			res.FullSimTime = perClip * time.Duration(len(test))
		} else {
			// Estimate the per-clip cost on a small sample.
			n := len(test)
			if n > 8 {
				n = 8
			}
			t3 := time.Now()
			for i := 0; i < n; i++ {
				if _, err := opt.Sim.Simulate(test[i].Clip); err != nil {
					return Result{}, fmt.Errorf("core: probe sim: %w", err)
				}
			}
			res.FullSimTime = time.Since(t3) / time.Duration(n) * time.Duration(len(test))
		}
	}
	return res, nil
}
