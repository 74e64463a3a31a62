package nn

import (
	"fmt"
	"math"

	"github.com/golitho/hsd/internal/tensor"
)

// Optimizer applies accumulated gradients to parameters.
type Optimizer interface {
	// Step updates every parameter from its gradient; gradients are not
	// cleared (call Network.ZeroGrad afterwards).
	Step(params []*Param)
	// Name identifies the optimizer in reports.
	Name() string
}

// SGD is stochastic gradient descent with classical momentum and L2
// weight decay.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	velocity []*tensor.Matrix
	lr0      configuredLR
}

var _ Optimizer = (*SGD)(nil)

// Name implements Optimizer.
func (s *SGD) Name() string { return "sgd" }

func (s *SGD) scaleLR(f float64) { s.lr0.set(&s.LR, s.LR*f) }

func (s *SGD) reset() {
	s.lr0.restore(&s.LR)
	s.velocity = nil
}

// configuredLR remembers the learning rate an optimizer was configured
// with across what a fit does to its LR field (step decay, a checkpoint
// restore), so that the next fit sharing the optimizer starts from the
// configured rate and not from wherever the last one left off. A rate
// the caller assigns between fits is the configured one from then on.
type configuredLR struct {
	lr, wrote float64
	held      bool
}

// set assigns v to *lr on a fit's behalf, first remembering *lr when it
// is still the caller's value and not one a fit wrote.
func (c *configuredLR) set(lr *float64, v float64) {
	if !c.held || *lr != c.wrote {
		c.lr, c.held = *lr, true
	}
	*lr, c.wrote = v, v
}

// restore puts the remembered rate back unless the caller has assigned
// *lr since the last set.
func (c *configuredLR) restore(lr *float64) {
	if c.held && *lr == c.wrote {
		*lr = c.lr
	}
	c.held = false
}

// Step implements Optimizer.
func (s *SGD) Step(params []*Param) {
	if s.velocity == nil {
		s.velocity = make([]*tensor.Matrix, len(params))
		for i, p := range params {
			s.velocity[i] = tensor.NewMatrix(p.W.Rows, p.W.Cols)
		}
	}
	for i, p := range params {
		v := s.velocity[i]
		for j := range p.W.Data {
			g := p.G.Data[j] + s.WeightDecay*p.W.Data[j]
			v.Data[j] = s.Momentum*v.Data[j] - s.LR*g
			p.W.Data[j] += v.Data[j]
		}
	}
}

// optState is the serializable state of an optimizer: a kind tag, the
// step count, the current (possibly decayed) learning rate, and the
// flat contents of each slot-matrix group (velocity for SGD; first and
// second moments for Adam). Slot geometry is not stored: it is
// recovered from the network's parameters on restore.
type optState struct {
	Kind  string
	T     int
	LR    float64
	Slots [][][]float64
}

// statefulOptimizer is satisfied by optimizers whose internal state can
// round-trip through a checkpoint and be discarded: reset returns the
// optimizer to step zero, no slots and its configured learning rate,
// which is where every fit that does not resume starts.
type statefulOptimizer interface {
	captureState() optState
	restoreState(st optState, params []*Param) error
	reset()
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

func (s *SGD) captureState() optState {
	st := optState{Kind: "sgd", LR: s.LR}
	if s.velocity != nil {
		st.Slots = [][][]float64{flattenSlots(s.velocity)}
	}
	return st
}

func (s *SGD) restoreState(st optState, params []*Param) error {
	if st.Kind != "sgd" {
		return fmt.Errorf("nn: checkpoint has %s optimizer state, run uses sgd", st.Kind)
	}
	s.lr0.set(&s.LR, st.LR)
	if len(st.Slots) == 0 {
		s.velocity = nil
		return nil
	}
	if len(st.Slots) != 1 {
		return fmt.Errorf("nn: sgd state has %d slot groups, want 1", len(st.Slots))
	}
	v, err := restoreSlots(st.Slots[0], params)
	if err != nil {
		return err
	}
	s.velocity = v
	return nil
}

// Adam is the Adam optimizer (Kingma & Ba 2015).
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	WeightDecay           float64

	t    int
	m, v []*tensor.Matrix
	lr0  configuredLR
}

var _ Optimizer = (*Adam)(nil)

// NewAdam returns Adam with standard defaults and the given learning rate.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Name implements Optimizer.
func (a *Adam) Name() string { return "adam" }

func (a *Adam) scaleLR(f float64) { a.lr0.set(&a.LR, a.LR*f) }

func (a *Adam) reset() {
	a.lr0.restore(&a.LR)
	a.t = 0
	a.m, a.v = nil, nil
}

func (a *Adam) captureState() optState {
	st := optState{Kind: "adam", T: a.t, LR: a.LR}
	if a.m != nil {
		st.Slots = [][][]float64{flattenSlots(a.m), flattenSlots(a.v)}
	}
	return st
}

func (a *Adam) restoreState(st optState, params []*Param) error {
	if st.Kind != "adam" {
		return fmt.Errorf("nn: checkpoint has %s optimizer state, run uses adam", st.Kind)
	}
	a.lr0.set(&a.LR, st.LR)
	a.t = st.T
	if len(st.Slots) == 0 {
		a.m, a.v = nil, nil
		return nil
	}
	if len(st.Slots) != 2 {
		return fmt.Errorf("nn: adam state has %d slot groups, want 2", len(st.Slots))
	}
	m, err := restoreSlots(st.Slots[0], params)
	if err != nil {
		return err
	}
	v, err := restoreSlots(st.Slots[1], params)
	if err != nil {
		return err
	}
	a.m, a.v = m, v
	return nil
}

// Step implements Optimizer.
func (a *Adam) Step(params []*Param) {
	if a.m == nil {
		a.m = make([]*tensor.Matrix, len(params))
		a.v = make([]*tensor.Matrix, len(params))
		for i, p := range params {
			a.m[i] = tensor.NewMatrix(p.W.Rows, p.W.Cols)
			a.v[i] = tensor.NewMatrix(p.W.Rows, p.W.Cols)
		}
	}
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range params {
		m, v := a.m[i], a.v[i]
		for j := range p.W.Data {
			g := p.G.Data[j] + a.WeightDecay*p.W.Data[j]
			m.Data[j] = a.Beta1*m.Data[j] + (1-a.Beta1)*g
			v.Data[j] = a.Beta2*v.Data[j] + (1-a.Beta2)*g*g
			mh := m.Data[j] / c1
			vh := v.Data[j] / c2
			p.W.Data[j] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
	}
}
