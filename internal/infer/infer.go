// Package infer is the tape-free serving forward path. The autodiff tape in
// internal/autodiff is the right tool for training — every op records a
// backward closure — but the serving hot loop pays those training-time costs
// on every prediction: node and matrix allocations per op, per-timestep
// column slices of the RU window, and six small matmuls per GRU step. This
// package re-implements the Env2Vec forward pass as straight-line kernels:
//
//   - the input-side GRU gate contributions for the whole window are
//     precomputed in one shot — X·[Wz|Wr|Wh] is a single (batch·n)×in by
//     in×(3·hidden) MatMulBlockedInto (for the paper's scalar-RU windows the
//     window matrix reshapes into the step sequence without copying, and the
//     matmul degenerates to an outer product) — leaving only the recurrent h·U*
//     matmuls inside the sequential loop;
//   - every temporary comes from a per-pass scratch arena recycled through a
//     sync.Pool, so steady-state prediction does no heap allocation beyond
//     the returned slice;
//   - bias addition and activations fuse into the loops that consume them.
//
// The arithmetic replicates the tape path operation-for-operation in the
// same order, so the two paths agree to float64 round-off (the parity tests
// in internal/core assert far tighter than the documented 1e-9). The tape
// path remains the reference implementation: training and gradient checks
// use it, and core.Model.PredictTape keeps it callable for parity testing.
//
// Weights are read live from the layer parameters on every pass — nothing
// weight-derived is cached — so a Predictor stays correct across optimizer
// steps and snapshot restores, and any number of goroutines may predict
// concurrently over a shared model.
package infer

import (
	"fmt"
	"math"
	"sync"

	"env2vec/internal/nn"
	"env2vec/internal/tensor"
)

// Head selects how dense features and the environment embedding combine,
// mirroring the heads in internal/core.
type Head int

// Prediction heads.
const (
	HeadHadamard Head = iota // y′ = Σ (v_d ⊙ C)
	HeadBilinear             // y′ = v_d · R · C
	HeadMLP                  // y′ = MLP([v_d, C])
)

// Network references the layers of an assembled Env2Vec model. The Predictor
// reads weights through these references at call time, so the caller may
// keep training or restoring the same layers without rebuilding anything.
type Network struct {
	FNNHidden  *nn.Dense       // contextual tower hidden layer → v_fs
	GRU        *nn.GRU         // scalar-input GRU over the RU window → v_ts
	Dense      *nn.Dense       // [v_ts | v_fs] → v_d
	Embeddings []*nn.Embedding // per-feature environment tables → C
	Attention  *nn.Attention   // optional mixture over all GRU states
	Head       Head
	Bilinear   *tensor.Matrix // R, required when Head == HeadBilinear
	HeadMLP    *nn.MLP        // required when Head == HeadMLP
}

// Predictor runs the fused forward pass. Create once per model with
// NewPredictor; it is safe for concurrent use.
type Predictor struct {
	net  Network
	pool sync.Pool // of *arena
}

// NewPredictor validates the network wiring and returns a ready predictor.
func NewPredictor(net Network) *Predictor {
	validateNetwork(net)
	p := &Predictor{net: net}
	p.pool.New = func() any { return &arena{} }
	return p
}

// validateNetwork checks the wiring shared by both precision paths.
func validateNetwork(net Network) {
	if net.FNNHidden == nil || net.GRU == nil || net.Dense == nil {
		panic("infer: network is missing a layer")
	}
	if net.GRU.In != 1 {
		panic("infer: the fused window kernel requires a GRU with scalar inputs")
	}
	if len(net.Embeddings) == 0 {
		panic("infer: network has no embedding tables")
	}
	switch net.Head {
	case HeadHadamard:
	case HeadBilinear:
		if net.Bilinear == nil {
			panic("infer: bilinear head without R matrix")
		}
	case HeadMLP:
		if net.HeadMLP == nil {
			panic("infer: MLP head without its MLP")
		}
	default:
		panic(fmt.Sprintf("infer: unknown prediction head %d", int(net.Head)))
	}
}

// Predict returns one prediction per batch row.
func (p *Predictor) Predict(b *nn.Batch) []float64 {
	out := make([]float64, b.X.Rows)
	p.PredictInto(out, b)
	return out
}

// PredictInto writes one prediction per batch row into out, which must be
// batch-sized. This is the zero-allocation entry point for callers that
// manage their own result storage.
func (p *Predictor) PredictInto(out []float64, b *nn.Batch) {
	if b.Window == nil {
		panic("infer: batch has no RU-history window")
	}
	if len(b.EnvIDs) != len(p.net.Embeddings) {
		panic(fmt.Sprintf("infer: batch has %d env id features, model wants %d", len(b.EnvIDs), len(p.net.Embeddings)))
	}
	n := b.X.Rows
	if b.Window.Rows != n {
		panic(fmt.Sprintf("infer: window has %d rows for %d examples", b.Window.Rows, n))
	}
	if len(out) != n {
		panic(fmt.Sprintf("infer: out has %d slots for %d examples", len(out), n))
	}
	a := p.pool.Get().(*arena)
	defer p.pool.Put(a)
	a.reset()

	vfs := denseForward(a, p.net.FNNHidden, b.X)

	var vts *tensor.Matrix
	if p.net.Attention != nil {
		_, states := p.gruWindow(a, b.Window, true)
		vts = attentionMix(a, p.net.Attention, states)
	} else {
		vts, _ = p.gruWindow(a, b.Window, false)
	}

	vs := concatCols(a, vts, vfs)
	vd := denseForward(a, p.net.Dense, vs)
	c := p.gatherEmbeddings(a, b.EnvIDs, n)

	switch p.net.Head {
	case HeadBilinear:
		vr := a.mat(n, p.net.Bilinear.Cols)
		tensor.MatMulBlockedInto(vr, vd, p.net.Bilinear)
		rowDots(out, vr, c)
	case HeadMLP:
		x := concatCols(a, vd, c)
		y := denseForward(a, p.net.HeadMLP.Out, denseForward(a, p.net.HeadMLP.Hidden, x))
		copy(out, y.Data)
	default:
		rowDots(out, vd, c)
	}
}

// gruWindow runs the fused GRU over a batch×T scalar window, returning the
// final hidden state and, when all is set, every step's state (arena-owned).
func (p *Predictor) gruWindow(a *arena, w *tensor.Matrix, all bool) (*tensor.Matrix, []*tensor.Matrix) {
	g := p.net.GRU
	n, T, H := w.Rows, w.Cols, g.Hidden
	if T == 0 {
		panic("infer: window has no timesteps")
	}

	// Input-side gate contributions for the whole window in one shot. The
	// row-major batch×T window IS the (batch·T)×1 step-input matrix, so the
	// reshape is free, and [Wz|Wr|Wh] packs into one 1×3H row. Row i·T+t of
	// pre then holds [x·Wz | x·Wr | x·Wh] for example i at step t.
	fw := a.mat(g.In, 3*H)
	for i := 0; i < g.In; i++ {
		row := fw.Row(i)
		copy(row[:H], g.Wz.Value.Row(i))
		copy(row[H:2*H], g.Wr.Value.Row(i))
		copy(row[2*H:], g.Wh.Value.Row(i))
	}
	xall := a.view(n*T, 1, w.Data)
	pre := a.mat(n*T, 3*H)
	tensor.MatMulBlockedInto(pre, xall, fw)

	h := a.mat(n, H)
	h.Zero()
	ru := a.mat(n, H)    // candidate recurrent matmul scratch
	ru2 := a.mat(n, 2*H) // fused z|r recurrent matmul scratch
	z := a.mat(n, H)
	r := a.mat(n, H)
	rh := a.mat(n, H)
	hc := a.mat(n, H)
	bz, br, bh := g.Bz.Value.Data, g.Br.Value.Data, g.Bh.Value.Data

	for t := 0; t < T; t++ {
		// z = σ(x·Wz + h·Uz + bz) and r = σ(x·Wr + h·Ur + br): both gates
		// multiply the same h, so one fused kernel computes h·[Uz|Ur] and
		// one pass applies biases and sigmoids to both.
		tensor.MatMulPairInto(ru2, h, g.Uz.Value, g.Ur.Value)
		gateRows2(z, r, pre, ru2, bz, br, t, T, H)
		// h' = act(x·Wh + (r ⊙ h)·Uh + bh)
		tensor.MulInto(rh, r, h)
		tensor.MatMulBlockedInto(ru, rh, g.Uh.Value)
		gateRows(hc, pre, ru, bh, t, T, 2*H, H, false)
		applyAct(hc, g.CandidateAct)
		// h = (1−z) ⊙ h' + z ⊙ h, elementwise so updating in place is safe.
		for i := range h.Data {
			h.Data[i] = (1-z.Data[i])*hc.Data[i] + z.Data[i]*h.Data[i]
		}
		if all {
			st := a.mat(n, H)
			copy(st.Data, h.Data)
			a.states = append(a.states, st)
		}
	}
	return h, a.states
}

// gateRows computes dst = pre[·, off:off+width at step t] + ru + bias, with
// the same (input + recurrent) + bias association the tape path uses, and
// optionally applies the sigmoid in the same pass.
func gateRows(dst, pre, ru *tensor.Matrix, bias []float64, t, T, off, width int, sig bool) {
	stride := pre.Cols
	for i := 0; i < dst.Rows; i++ {
		prow := pre.Data[(i*T+t)*stride+off:]
		drow, rrow := dst.Row(i), ru.Row(i)
		if sig {
			for j := 0; j < width; j++ {
				drow[j] = sigmoid(prow[j] + rrow[j] + bias[j])
			}
		} else {
			for j := 0; j < width; j++ {
				drow[j] = prow[j] + rrow[j] + bias[j]
			}
		}
	}
}

// gateRows2 applies both update-gate and reset-gate rows in one pass over
// the fused recurrent product: ru2's left H columns hold h·Uz, its right H
// columns h·Ur (see tensor.MatMulPairInto). Per element the association is
// identical to two gateRows calls: (input + recurrent) + bias, then σ.
func gateRows2(z, r, pre, ru2 *tensor.Matrix, bz, br []float64, t, T, H int) {
	stride := pre.Cols
	for i := 0; i < z.Rows; i++ {
		prow := pre.Data[(i*T+t)*stride : (i*T+t)*stride+2*H]
		rrow := ru2.Row(i)
		zrow, rr := z.Row(i), r.Row(i)
		for j := 0; j < H; j++ {
			zrow[j] = sigmoid(prow[j] + rrow[j] + bz[j])
		}
		for j := 0; j < H; j++ {
			rr[j] = sigmoid(prow[H+j] + rrow[H+j] + br[j])
		}
	}
}

// attentionMix replicates nn.Attention.Forward: additive scores, an exp/sum
// softmax accumulated in step order, and the weighted state mixture.
func attentionMix(a *arena, at *nn.Attention, states []*tensor.Matrix) *tensor.Matrix {
	n, H := states[0].Rows, states[0].Cols
	attn := at.W.Value.Cols
	bias, v := at.B.Value.Data, at.V.Value.Data

	st := a.mat(n, attn)
	exps := a.mat(n, len(states)) // exps[i][t] = exp(score of state t, row i)
	total := a.mat(n, 1)
	total.Zero()
	for t, ht := range states {
		tensor.MatMulBlockedInto(st, ht, at.W.Value)
		for i := 0; i < n; i++ {
			row := st.Row(i)
			s := 0.0
			for j := 0; j < attn; j++ {
				s += math.Tanh(row[j]+bias[j]) * v[j]
			}
			e := math.Exp(s)
			exps.Set(i, t, e)
			total.Data[i] += e
		}
	}
	out := a.mat(n, H)
	out.Zero()
	for t, ht := range states {
		for i := 0; i < n; i++ {
			alpha := exps.At(i, t) * (1 / total.Data[i])
			hrow, orow := ht.Row(i), out.Row(i)
			for j := range orow {
				orow[j] += hrow[j] * alpha
			}
		}
	}
	return out
}

// gatherEmbeddings fuses the per-feature table gathers and the column
// concatenation of Equation 1 into direct row copies, clamping unseen or
// out-of-range ids to the <unk> row exactly like nn.Embedding.Forward.
func (p *Predictor) gatherEmbeddings(a *arena, envIDs [][]int, n int) *tensor.Matrix {
	dim := p.net.Embeddings[0].Dim
	c := a.mat(n, len(p.net.Embeddings)*dim)
	for k, emb := range p.net.Embeddings {
		tbl := emb.Table.Value
		ids := envIDs[k]
		if len(ids) != n {
			panic(fmt.Sprintf("infer: env feature %d has %d ids for %d examples", k, len(ids), n))
		}
		lo := k * dim
		for i, id := range ids {
			if id < 0 || id >= tbl.Rows {
				id = nn.UnknownIndex
			}
			copy(c.Row(i)[lo:lo+dim], tbl.Row(id))
		}
	}
	return c
}

// denseForward is act(x·W + b) with the bias fold and activation fused into
// one pass over the output.
func denseForward(a *arena, d *nn.Dense, x *tensor.Matrix) *tensor.Matrix {
	out := a.mat(x.Rows, d.W.Value.Cols)
	tensor.MatMulBlockedInto(out, x, d.W.Value)
	bias := d.B.Value.Data
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] += bias[j]
		}
	}
	applyAct(out, d.Act)
	return out
}

func concatCols(a *arena, l, r *tensor.Matrix) *tensor.Matrix {
	out := a.mat(l.Rows, l.Cols+r.Cols)
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		copy(row[:l.Cols], l.Row(i))
		copy(row[l.Cols:], r.Row(i))
	}
	return out
}

// rowDots writes the per-row inner product of two equal-shape matrices —
// SumRows(Mul(a, b)) without the intermediate.
func rowDots(out []float64, a, b *tensor.Matrix) {
	for i := range out {
		arow, brow := a.Row(i), b.Row(i)
		s := 0.0
		for j, v := range arow {
			s += v * brow[j]
		}
		out[i] = s
	}
}

// sigmoid matches the autodiff tape's formulation exactly.
func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

func applyAct(m *tensor.Matrix, act nn.Activation) {
	switch act {
	case nn.Linear:
	case nn.Sigmoid:
		for i, v := range m.Data {
			m.Data[i] = sigmoid(v)
		}
	case nn.Tanh:
		for i, v := range m.Data {
			m.Data[i] = math.Tanh(v)
		}
	case nn.ReLU:
		for i, v := range m.Data {
			if v < 0 {
				m.Data[i] = 0
			}
		}
	default:
		panic(fmt.Sprintf("infer: unknown activation %d", int(act)))
	}
}
