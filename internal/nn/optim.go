package nn

import (
	"math"

	"github.com/golitho/hsd/internal/tensor"
)

// Adam's learning rate, moment decay rates and denominator guard,
// Kingma & Ba's defaults. They are typed so that 1-adamBeta1 is the
// float64 difference the trained-bytes goldens were taken with, not the
// exact 0.1.
const (
	adamLR    float64 = 1e-3
	adamBeta1 float64 = 0.9
	adamBeta2 float64 = 0.999
	adamEps   float64 = 1e-8
)

// adam is one fit's Adam optimizer (Kingma & Ba 2015): the step count
// and every parameter's first and second moments. FitCtx builds it
// fresh, so no fit sees another's state.
type adam struct {
	t    int
	m, v []*tensor.Matrix
}

// newAdam returns step zero over params: zero moments.
func newAdam(params []*Param) *adam {
	a := &adam{m: make([]*tensor.Matrix, len(params)), v: make([]*tensor.Matrix, len(params))}
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
			p.W.Data[j] -= adamLR * mh / (math.Sqrt(vh) + adamEps)
		}
	}
}
