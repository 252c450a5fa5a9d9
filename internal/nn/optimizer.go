package nn

import (
	"math"

	"env2vec/internal/tensor"
)

// Optimizer updates parameters from the gradients of the latest backward
// pass.
type Optimizer interface {
	// Step applies one update to every parameter with a bound gradient.
	Step(params []*Param)
}

// Adam implements the Adam update rule (Kingma & Ba, 2014), the optimizer
// the paper trains Env2Vec with. A step computes its constants once — the
// clip scale, 1−β1 and 1−β2, the bias corrections 1−βᵗ — and hands each
// parameter's elements to tensor.AdamStep, whose kernel runs the update's
// expression (m and v first, then p −= lr·m̂/(√v̂ + ε)) four elements at a
// time with the Go loop's roundings.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	ClipNorm              float64 // 0 disables clipping

	t int
	m map[*Param]*tensor.Matrix
	v map[*Param]*tensor.Matrix
}

// NewAdam returns an Adam optimizer with the conventional defaults
// (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param]*tensor.Matrix),
		v: make(map[*Param]*tensor.Matrix),
	}
}

// Step implements Optimizer.
func (a *Adam) Step(params []*Param) {
	a.t++
	c := tensor.AdamCoef{
		Scale: clipScale(params, a.ClipNorm),
		Beta1: a.Beta1, OneMinusBeta1: 1 - a.Beta1,
		Beta2: a.Beta2, OneMinusBeta2: 1 - a.Beta2,
		BC1: 1 - math.Pow(a.Beta1, float64(a.t)),
		BC2: 1 - math.Pow(a.Beta2, float64(a.t)),
		LR:  a.LR, Eps: a.Eps,
	}
	for _, p := range params {
		g := p.Grad()
		if g == nil {
			continue
		}
		m, ok := a.m[p]
		if !ok {
			m = tensor.New(p.Value.Rows, p.Value.Cols)
			a.m[p] = m
		}
		v, ok := a.v[p]
		if !ok {
			v = tensor.New(p.Value.Rows, p.Value.Cols)
			a.v[p] = v
		}
		tensor.AdamStep(p.Value.Data, g.Data, m.Data, v.Data, &c)
	}
}

// clipScale returns the multiplier implementing global-norm gradient
// clipping; 1 when clipping is disabled or the norm is within bounds.
func clipScale(params []*Param, clip float64) float64 {
	if clip <= 0 {
		return 1
	}
	total := 0.0
	for _, p := range params {
		g := p.Grad()
		if g == nil {
			continue
		}
		for _, x := range g.Data {
			total += x * x
		}
	}
	norm := math.Sqrt(total)
	if norm <= clip || norm == 0 {
		return 1
	}
	return clip / norm
}
