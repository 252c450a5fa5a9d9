package nn

import (
	"fmt"
	"math"
	"math/rand"

	"env2vec/internal/autodiff"
	"env2vec/internal/tensor"
)

// GRU is a gated recurrent unit over a sequence of scalar inputs; it follows
// the formulation in the Env2Vec appendix: update gate z, reset gate r,
// candidate state h' with a configurable activation (ReLU in the paper), and
// h_t = (1−z)⊙h' + z⊙h_{t−1}.
type GRU struct {
	Hidden                             int
	Wz, Uz, Bz, Wr, Ur, Br, Wh, Uh, Bh *Param
	CandidateAct                       Activation
}

// NewGRU creates a GRU layer mapping a sequence of scalars to a hidden-dim
// summary vector.
func NewGRU(name string, hidden int, rng *rand.Rand) *GRU {
	g := &GRU{
		Hidden: hidden,
		Wz:     NewParam(name+".Wz", 1, hidden), Uz: NewParam(name+".Uz", hidden, hidden), Bz: NewParam(name+".bz", 1, hidden),
		Wr: NewParam(name+".Wr", 1, hidden), Ur: NewParam(name+".Ur", hidden, hidden), Br: NewParam(name+".br", 1, hidden),
		Wh: NewParam(name+".Wh", 1, hidden), Uh: NewParam(name+".Uh", hidden, hidden), Bh: NewParam(name+".bh", 1, hidden),
		CandidateAct: ReLU,
	}
	for _, p := range []*Param{g.Wz, g.Uz, g.Wr, g.Ur, g.Wh, g.Uh} {
		p.Value.GlorotUniform(rng)
	}
	return g
}

// Params implements Layer.
func (g *GRU) Params() []*Param {
	return []*Param{g.Wz, g.Uz, g.Bz, g.Wr, g.Ur, g.Br, g.Wh, g.Uh, g.Bh}
}

// ForwardWindow runs the GRU over window, batch×n with column j the value at
// relative timestep j, and returns the final hidden state (batch×hidden).
// Gradients reach the window when it requires them.
func (g *GRU) ForwardWindow(t *autodiff.Tape, window *autodiff.Node) *autodiff.Node {
	states := g.sequence(t, window)
	return t.SliceRowsNode(states, states.Value.Rows-window.Value.Rows, states.Value.Rows)
}

// ForwardWindowAll is ForwardWindow returning every step's hidden state, for
// attention-based summaries.
func (g *GRU) ForwardWindowAll(t *autodiff.Tape, window *autodiff.Node) []*autodiff.Node {
	states := g.sequence(t, window)
	n := window.Value.Rows
	out := make([]*autodiff.Node, window.Value.Cols)
	for k := range out {
		out[k] = t.SliceRowsNode(states, k*n, (k+1)*n)
	}
	return out
}

// gruRun is one recurrence on a tape: what its forward keeps for its
// backward. Every (steps·n)-row matrix is step-major — rows k·n to (k+1)·n
// are the batch at step k — so a step reads and writes contiguous blocks.
type gruRun struct {
	t        *autodiff.Tape
	g        *GRU
	n, steps int
	window   *autodiff.Node
	p        [9]*autodiff.Node // Wz, Uz, Bz, Wr, Ur, Br, Wh, Uh, Bh as bound
	x        *tensor.Matrix    // (steps·n)×1, the window
	h0       *tensor.Matrix    // n×H zeros, the state before step 0
	zr       *tensor.Matrix    // (steps·n)×2H, the gates [z|r]
	rh       *tensor.Matrix    // (steps·n)×H, r⊙h_{t−1}
	pre      *tensor.Matrix    // (steps·n)×H, the candidate before its activation
	cand     *tensor.Matrix    // (steps·n)×H, the candidate h′ (pre itself when linear)
}

// block is rows [k·n, (k+1)·n) of a step-major matrix.
func block(m *tensor.Matrix, k, n int) tensor.Matrix {
	w := n * m.Cols
	return tensor.Matrix{Rows: n, Cols: m.Cols, Data: m.Data[k*w : (k+1)*w]}
}

// state is h_k, out of the states for k ≥ 0 and h₀ = 0 for k = −1.
func (r *gruRun) state(states *tensor.Matrix, k int) tensor.Matrix {
	if k < 0 {
		return *r.h0
	}
	return block(states, k, r.n)
}

// sequence runs the recurrence over a batch×steps window as one tape node,
// the step-major (steps·n)×H matrix of every state. Its value and every
// gradient its backward writes carry the bits of the per-operation graph it
// replaces (gru_ref_test.go keeps that graph and compares the two):
//
//   - The input products are one x·[Wz|Wr|Wh] over the (steps·n)×1 window:
//     with one input column every element is 0 + x·w, as in the per-step
//     products. The recurrent product is one h·[Uz|Ur] a step; concatenating
//     columns never changes an element's k-order.
//   - The sums keep the graph's order: [z|r] = σ((x·W + h·U) + b), where
//     SigmoidAdd adds the bias, and h′ = act((x·Wh + (r⊙h)·Uh) + bh). Folding
//     the bias into the input product, as the predictor does, would move bits.
func (g *GRU) sequence(t *autodiff.Tape, window *autodiff.Node) *autodiff.Node {
	n, steps, H := window.Value.Rows, window.Value.Cols, g.Hidden
	if steps == 0 {
		panic("nn: a GRU window needs at least one timestep")
	}
	r := &gruRun{t: t, g: g, n: n, steps: steps, window: window}
	for i, p := range [...]*Param{g.Wz, g.Uz, g.Bz, g.Wr, g.Ur, g.Br, g.Wh, g.Uh, g.Bh} {
		r.p[i] = p.Bind(t)
	}
	out := t.Op(steps*n, H, true, r.backward)

	r.x = t.Mat(steps*n, 1)
	for i := 0; i < n; i++ {
		for k, v := range window.Value.Row(i) {
			r.x.Data[k*n+i] = v
		}
	}
	w := t.Mat(1, 3*H)
	copy(w.Data, g.Wz.Value.Data)
	copy(w.Data[H:], g.Wr.Value.Data)
	copy(w.Data[2*H:], g.Wh.Value.Data)
	xw := t.Mat(steps*n, 3*H)
	tensor.MatMulBlockedInto(xw, r.x, w)
	u := t.Mat(H, 2*H)
	bzr := t.Mat(n, 2*H) // [bz|br] on every row: SigmoidAdd's addend
	for i := 0; i < H; i++ {
		copy(u.Row(i), g.Uz.Value.Row(i))
		copy(u.Row(i)[H:], g.Ur.Value.Row(i))
	}
	for i := 0; i < n; i++ {
		copy(bzr.Row(i), g.Bz.Value.Data)
		copy(bzr.Row(i)[H:], g.Br.Value.Data)
	}
	bh := g.Bh.Value.Data

	r.h0 = t.Mat(n, H)
	r.h0.Zero()
	r.zr, r.rh, r.pre = t.Mat(steps*n, 2*H), t.Mat(steps*n, H), t.Mat(steps*n, H)
	r.cand = r.pre
	if g.CandidateAct != Linear {
		r.cand = t.Mat(steps*n, H)
	}
	for k := 0; k < steps; k++ {
		hp, h := r.state(out.Value, k-1), block(out.Value, k, n)
		zr, rh, pre, cand := block(r.zr, k, n), block(r.rh, k, n), block(r.pre, k, n), block(r.cand, k, n)
		tensor.MatMulBlockedInto(&zr, &hp, u)
		for i := 0; i < n; i++ {
			row := zr.Row(i)
			for j, v := range xw.Row(k*n + i)[:2*H] {
				row[j] = v + row[j]
			}
		}
		tensor.SigmoidAdd(zr.Data, zr.Data, bzr.Data)
		tensor.GateMul(rh.Data, zr.Data, hp.Data, H)
		tensor.MatMulBlockedInto(&pre, &rh, g.Uh.Value)
		for i := 0; i < n; i++ {
			row := pre.Row(i)
			for j, v := range xw.Row(k*n + i)[2*H:] {
				row[j] = (v + row[j]) + bh[j]
			}
		}
		activate(g.CandidateAct, cand.Data, pre.Data)
		copy(h.Data, hp.Data)
		tensor.GateBlend(h.Data, zr.Data, cand.Data, H)
	}
	return out
}

// activate writes act(x) into dst with the tape's own expressions; Linear
// needs no call (the candidate is its pre-activation).
func activate(act Activation, dst, x []float64) {
	switch act {
	case Linear:
	case Sigmoid:
		tensor.Sigmoid(dst, x)
	case Tanh:
		for i, v := range x {
			dst[i] = math.Tanh(v)
		}
	case ReLU:
		for i, v := range x {
			if v < 0 {
				v = 0
			}
			dst[i] = v
		}
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", int(act)))
	}
}

// backward is the per-operation graph's backward sweep, replayed: steps from
// the last to the first, and inside a step the graph's nodes in reverse,
//
//	h = (1−z)⊙h′ + z⊙h_{t−1}   ∂z = ∂h⊙h_{t−1} − ∂h⊙h′, ∂h′ = ∂h⊙(1−z)
//	h′ = act(c)                ∂c = ∂h′⊙act′ (ReLU: ∂h′ where c > 0, else 0)
//	c = (x·Wh + (r⊙h)·Uh) + bh ∂(r⊙h) = ∂c·Uhᵀ; ∂Uh, ∂Wh, ∂bh
//	r = σ((x·Wr + h·Ur) + br)  ∂r = ∂(r⊙h)⊙h_{t−1}⊙r⊙(1−r); ∂Ur, ∂Wr, ∂br
//	z = σ((x·Wz + h·Uz) + bz)  ∂z ← ∂z⊙z⊙(1−z); ∂Uz, ∂Wz, ∂bz
//
// with each product in the graph's own operand order. ∂h_{t−1} starts as
// what later consumers wrote into its block and gathers, in this order,
// ∂h⊙z, ∂(r⊙h)⊙r, ∂r·Urᵀ and ∂z·Uzᵀ. Every matrix product is computed whole
// and then added, each parameter gathers one product a step, from the last
// step to the first, and each bias its gradient row by row. The graph added
// each intermediate gradient into zeroed storage, which turns a −0 into +0;
// the closure skips those additions, since every number it writes is a sum
// begun at +0 (a gradient or a product's accumulator), where a zero's sign
// never shows.
func (r *gruRun) backward(out *autodiff.Node) {
	t, g, n, H := r.t, r.g, r.n, r.g.Hidden
	dWz, dUz, dBz := r.p[0].Grad, r.p[1].Grad, r.p[2].Grad
	dWr, dUr, dBr := r.p[3].Grad, r.p[4].Grad, r.p[5].Grad
	dWh, dUh, dBh := r.p[6].Grad, r.p[7].Grad, r.p[8].Grad
	uzT, urT, uhT := transposed(t, g.Uz.Value), transposed(t, g.Ur.Value), transposed(t, g.Uh.Value)
	dz, dr, dc, drh := t.Mat(n, H), t.Mat(n, H), t.Mat(n, H), t.Mat(n, H)
	prod, sq, row := t.Mat(n, H), t.Mat(H, H), t.Mat(1, H)
	hT, rhT := t.Mat(H, n), t.Mat(H, n)
	var dx, px, wzT, wrT, whT *tensor.Matrix
	if r.window.RequiresGrad() {
		dx, px = t.Mat(n, 1), t.Mat(n, 1)
		wzT, wrT, whT = transposed(t, g.Wz.Value), transposed(t, g.Wr.Value), transposed(t, g.Wh.Value)
	}
	act := g.CandidateAct
	for k := r.steps - 1; k >= 0; k-- {
		dh, hp := block(out.Grad, k, n), r.state(out.Value, k-1)
		zr, rh, pre, cand := block(r.zr, k, n), block(r.rh, k, n), block(r.pre, k, n), block(r.cand, k, n)
		var dhp tensor.Matrix // ∂h_{t−1}; h₀ is a constant
		if k > 0 {
			dhp = block(out.Grad, k-1, n)
		}
		for i := 0; i < n; i++ {
			lo, hi := i*H, (i+1)*H
			dhr, z := dh.Data[lo:hi], zr.Row(i)[:H]
			hpr, cr, pr, dcr, dzr := hp.Data[lo:hi], cand.Data[lo:hi], pre.Data[lo:hi], dc.Data[lo:hi], dz.Data[lo:hi]
			for j, gv := range dhr {
				if k > 0 {
					dhp.Data[lo+j] += gv * z[j]
				}
				dzx := gv*hpr[j] - gv*cr[j]
				dcx := gv * (1 - z[j])
				switch act {
				case Sigmoid:
					dcx = dcx * cr[j] * (1 - cr[j])
				case Tanh:
					dcx = dcx * (1 - cr[j]*cr[j])
				case ReLU:
					if !(pr[j] > 0) {
						dcx = 0
					}
				}
				dcr[j], dzr[j] = dcx, dzx*z[j]*(1-z[j])
				dBh.Data[j] += dcr[j]
				dBz.Data[j] += dzr[j]
			}
		}
		tensor.MatMulBlockedInto(drh, dc, uhT)
		for i := 0; i < n; i++ {
			lo, hi := i*H, (i+1)*H
			rg, drhr, hpr, drr := zr.Row(i)[H:], drh.Data[lo:hi], hp.Data[lo:hi], dr.Data[lo:hi]
			for j, rv := range rg {
				drr[j] = drhr[j] * hpr[j] * rv * (1 - rv)
				dBr.Data[j] += drr[j]
				if k > 0 {
					dhp.Data[lo+j] += drhr[j] * rv
				}
			}
		}
		if k > 0 {
			addProduct(&dhp, prod, dr, urT)
			addProduct(&dhp, prod, dz, uzT)
		}

		rh.TransposeInto(rhT)
		hp.TransposeInto(hT)
		xT := tensor.Matrix{Rows: 1, Cols: n, Data: r.x.Data[k*n : (k+1)*n]}
		addProduct(dUh, sq, rhT, dc)
		addProduct(dWh, row, &xT, dc)
		addProduct(dUr, sq, hT, dr)
		addProduct(dWr, row, &xT, dr)
		addProduct(dUz, sq, hT, dz)
		addProduct(dWz, row, &xT, dz)

		if dx != nil { // the window's column k: ((∂c·Whᵀ + ∂r·Wrᵀ) + ∂z·Wzᵀ)
			tensor.MatMulBlockedInto(dx, dc, whT)
			addProduct(dx, px, dr, wrT)
			addProduct(dx, px, dz, wzT)
			wg := r.window.Grad
			for i, v := range dx.Data {
				wg.Data[i*r.steps+k] += v
			}
		}
	}
}

// transposed packs mᵀ into the tape's scratch.
func transposed(t *autodiff.Tape, m *tensor.Matrix) *tensor.Matrix {
	mt := t.Mat(m.Cols, m.Rows)
	m.TransposeInto(mt)
	return mt
}

// addProduct adds x×y into grad by way of prod, a scratch of grad's shape.
func addProduct(grad, prod, x, y *tensor.Matrix) {
	tensor.MatMulBlockedInto(prod, x, y)
	grad.AddInPlace(prod)
}
