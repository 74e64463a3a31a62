package nn

import (
	"fmt"
	"math"

	"github.com/golitho/hsd/internal/tensor"
)

// Adam's moment decay rates and denominator guard, Kingma & Ba's
// defaults. They are typed so that 1-adamBeta1 is the float64 difference
// the trained-bytes goldens were taken with, not the exact 0.1.
const (
	adamBeta1 float64 = 0.9
	adamBeta2 float64 = 0.999
	adamEps   float64 = 1e-8
)

// adam is one fit's Adam optimizer (Kingma & Ba 2015): the learning
// rate, the step count and every parameter's first and second moments.
// FitCtx builds it fresh or restores it from the resumed checkpoint, so
// no fit sees another's state.
type adam struct {
	lr   float64
	t    int
	m, v []*tensor.Matrix
}

// newAdam returns step zero over params: zero moments at rate lr.
func newAdam(lr float64, params []*Param) *adam {
	a := &adam{lr: lr, m: make([]*tensor.Matrix, len(params)), v: make([]*tensor.Matrix, len(params))}
	for i, p := range params {
		a.m[i] = tensor.NewMatrix(p.W.Rows, p.W.Cols)
		a.v[i] = tensor.NewMatrix(p.W.Rows, p.W.Cols)
	}
	return a
}

// step updates every parameter from its gradient; gradients are not
// cleared (FitCtx zeroes each Param's G before the next Backward).
func (a *adam) step(params []*Param) {
	a.t++
	c1 := 1 - math.Pow(adamBeta1, float64(a.t))
	c2 := 1 - math.Pow(adamBeta2, float64(a.t))
	for i, p := range params {
		m, v := a.m[i], a.v[i]
		for j, g := range p.G.Data {
			m.Data[j] = adamBeta1*m.Data[j] + (1-adamBeta1)*g
			v.Data[j] = adamBeta2*v.Data[j] + (1-adamBeta2)*g*g
			mh := m.Data[j] / c1
			vh := v.Data[j] / c2
			p.W.Data[j] -= a.lr * mh / (math.Sqrt(vh) + adamEps)
		}
	}
}

// optState is the serializable state of the optimizer: a kind tag
// (always "adam"; restore refuses any other), the step count, the
// learning rate, and the flat contents of the first- and second-moment
// slot groups. Slot geometry is not stored: it is recovered from the
// network's parameters on restore.
type optState struct {
	Kind  string
	T     int
	LR    float64
	Slots [][][]float64
}

func (a *adam) state() optState {
	return optState{Kind: "adam", T: a.t, LR: a.lr, Slots: [][][]float64{flattenSlots(a.m), flattenSlots(a.v)}}
}

// restoreAdam rebuilds the optimizer st describes over params, refusing
// state that does not fit them.
func restoreAdam(st optState, params []*Param) (*adam, error) {
	if st.Kind != "adam" {
		return nil, fmt.Errorf("nn: checkpoint has %q optimizer state, want adam", st.Kind)
	}
	if !(st.LR > 0) || math.IsInf(st.LR, 1) {
		return nil, fmt.Errorf("nn: checkpoint has learning rate %v", st.LR)
	}
	if len(st.Slots) != 2 {
		return nil, fmt.Errorf("nn: adam state has %d slot groups, want 2", len(st.Slots))
	}
	m, err := restoreSlots(st.Slots[0], params)
	if err != nil {
		return nil, err
	}
	v, err := restoreSlots(st.Slots[1], params)
	if err != nil {
		return nil, err
	}
	return &adam{lr: st.LR, t: st.T, m: m, v: v}, nil
}

func flattenSlots(mats []*tensor.Matrix) [][]float64 {
	out := make([][]float64, len(mats))
	for i, m := range mats {
		out[i] = append([]float64(nil), m.Data...)
	}
	return out
}

func restoreSlots(flat [][]float64, params []*Param) ([]*tensor.Matrix, error) {
	if len(flat) != len(params) {
		return nil, fmt.Errorf("nn: optimizer state has %d slots, network has %d params", len(flat), len(params))
	}
	out := make([]*tensor.Matrix, len(params))
	for i, p := range params {
		m := tensor.NewMatrix(p.W.Rows, p.W.Cols)
		if len(flat[i]) != len(m.Data) {
			return nil, fmt.Errorf("nn: optimizer slot %d has %d values, param has %d", i, len(flat[i]), len(m.Data))
		}
		copy(m.Data, flat[i])
		out[i] = m
	}
	return out, nil
}
