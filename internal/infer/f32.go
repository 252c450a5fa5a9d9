// The float32 serving path: a frozen, load-time-converted copy of the
// network that runs the fused forward pass in single precision.
//
// Unlike Predictor — which reads the live float64 layer weights on every
// call and therefore tracks optimizer steps — a Predictor32 snapshots the
// weights ONCE at construction, rounding each matrix to float32 and packing
// the GRU's input-side [Wz|Wr|Wh] and recurrent [Uz|Ur] blocks ahead of
// time. That is exactly the serving contract: bundles are immutable after
// load, so the conversion cost is paid once per model version and the hot
// loop touches half the memory the float64 path does. On amd64 the float32
// GEMMs and the logistic additionally dispatch to 8-lane AVX2+FMA kernels
// (internal/tensor).
//
// Numerics: weights and arithmetic are float32, and so is the logistic: the
// GRU gates and the sigmoid dense layers go through tensor.SigmoidAdd32, a
// float32 polynomial within 2 ulp of the float64 logistic that takes the
// bias (or the input-side pre-activation) as its addend. A window is ~1 300
// gate sigmoids per row, so that kernel, not the GEMMs, decides what this
// path costs. tanh and the attention softmax evaluate in float64 and round
// once; no default model puts them on the hot path. End to end the path
// agrees with the float64 tape reference to ~1e-6 relative in practice; the
// parity battery in internal/core asserts a conservative 1e-4 — see
// docs/performance.md for the error budget.
package infer

import (
	"fmt"
	"math"
	"sync"

	"env2vec/internal/nn"
	"env2vec/internal/tensor"
)

// dense32 is one converted dense layer: act(x·W + b).
type dense32 struct {
	w   *tensor.Matrix32
	b   []float32
	act nn.Activation
}

func newDense32(d *nn.Dense) dense32 {
	return dense32{w: d.W.Value32(), b: d.B.Value32().Data, act: d.Act}
}

// Predictor32 runs the fused forward pass in float32 over weights frozen at
// construction time. It is safe for concurrent use, and — because it never
// reads the source layers again — concurrent training of the originating
// model does not race with it. Rebuild one (NewPredictor32) to pick up new
// weights.
type Predictor32 struct {
	head Head

	fnn   dense32
	dense dense32

	gruH    int
	fw      *tensor.Matrix32 // 2×3H: packed [Wz|Wr|Wh] over packed [bz|br|bh]
	uzr     *tensor.Matrix32 // H×2H packed [Uz|Ur] — the fused recurrent block
	uh      *tensor.Matrix32
	candAct nn.Activation

	tables   []*tensor.Matrix32
	embedDim int

	attnW *tensor.Matrix32 // nil when the model has no attention
	attnB []float32
	attnV []float32

	bilinear *tensor.Matrix32
	mlpH     dense32
	mlpO     dense32

	pool sync.Pool // of *arena32
}

// NewPredictor32 validates the network wiring and snapshots its weights
// into a float32 predictor. The conversion rounds every weight exactly
// once; later optimizer steps or restores on the source layers are NOT
// reflected — the float64 Predictor is the live-weight path.
func NewPredictor32(net Network) *Predictor32 {
	validateNetwork(net)
	g := net.GRU
	H := g.Hidden
	p := &Predictor32{
		head:    net.Head,
		fnn:     newDense32(net.FNNHidden),
		dense:   newDense32(net.Dense),
		gruH:    H,
		uh:      g.Uh.Value32(),
		candAct: g.CandidateAct,
	}
	// The GRU input is a scalar (validateNetwork), so the input-side product
	// for all three gates is x·fw[0]; fw[1] holds the biases and meets a
	// constant 1 beside x, which makes the input GEMM add them for free.
	p.fw = tensor.New32(2, 3*H)
	for k, part := range [][2]*nn.Param{{g.Wz, g.Bz}, {g.Wr, g.Br}, {g.Wh, g.Bh}} {
		copy(p.fw.Row(0)[k*H:], part[0].Value32().Data)
		copy(p.fw.Row(1)[k*H:], part[1].Value32().Data)
	}
	p.uzr = tensor.New32(H, 2*H)
	uz, ur := g.Uz.Value32(), g.Ur.Value32()
	for i := 0; i < H; i++ {
		row := p.uzr.Row(i)
		copy(row[:H], uz.Row(i))
		copy(row[H:], ur.Row(i))
	}
	p.embedDim = net.Embeddings[0].Dim
	for _, e := range net.Embeddings {
		p.tables = append(p.tables, e.Table.Value32())
	}
	if net.Attention != nil {
		p.attnW = net.Attention.W.Value32()
		p.attnB = net.Attention.B.Value32().Data
		p.attnV = net.Attention.V.Value32().Data
	}
	switch net.Head {
	case HeadBilinear:
		p.bilinear = net.Bilinear.To32()
	case HeadMLP:
		p.mlpH = newDense32(net.HeadMLP.Hidden)
		p.mlpO = newDense32(net.HeadMLP.Out)
	}
	p.pool.New = func() any { return &arena32{} }
	return p
}

// Predict returns one prediction per batch row.
func (p *Predictor32) Predict(b *nn.Batch) []float64 {
	out := make([]float64, b.X.Rows)
	p.PredictInto(out, b)
	return out
}

// PredictInto writes one prediction per batch row into out, which must be
// batch-sized. Inputs arrive and results leave as float64 — precision is an
// implementation detail of the bundle, invisible in the API — and the
// steady state allocates nothing.
func (p *Predictor32) PredictInto(out []float64, b *nn.Batch) {
	if b.Window == nil {
		panic("infer: batch has no RU-history window")
	}
	if len(b.EnvIDs) != len(p.tables) {
		panic(fmt.Sprintf("infer: batch has %d env id features, model wants %d", len(b.EnvIDs), len(p.tables)))
	}
	n := b.X.Rows
	if b.Window.Rows != n {
		panic(fmt.Sprintf("infer: window has %d rows for %d examples", b.Window.Rows, n))
	}
	if len(out) != n {
		panic(fmt.Sprintf("infer: out has %d slots for %d examples", len(out), n))
	}
	a := p.pool.Get().(*arena32)
	defer p.pool.Put(a)
	a.reset()

	vfs := denseForward32(a, p.fnn, a.from64(b.X))

	var vts *tensor.Matrix32
	if p.attnW != nil {
		_, states := p.gruWindow32(a, b.Window, true)
		vts = p.attentionMix32(a, states)
	} else {
		vts, _ = p.gruWindow32(a, b.Window, false)
	}

	vs := concatCols32(a, vts, vfs)
	vd := denseForward32(a, p.dense, vs)
	c := p.gatherEmbeddings32(a, b.EnvIDs, n)

	switch p.head {
	case HeadBilinear:
		vr := a.mat(n, p.bilinear.Cols)
		tensor.MatMulBlockedInto32(vr, vd, p.bilinear)
		rowDots32(out, vr, c)
	case HeadMLP:
		x := concatCols32(a, vd, c)
		y := denseForward32(a, p.mlpO, denseForward32(a, p.mlpH, x))
		for i, v := range y.Data {
			out[i] = float64(v)
		}
	default:
		rowDots32(out, vd, c)
	}
}

// gruWindow32 mirrors Predictor.gruWindow in float32. The input-side
// products, biases included, are one GEMM for the whole window; a step is
// then two GEMMs — h·[Uz|Ur] and (r⊙h)·Uh — and one logistic call
// per row that turns the 2H-wide [z|r] pre-activations into gates in place.
func (p *Predictor32) gruWindow32(a *arena32, w *tensor.Matrix, all bool) (*tensor.Matrix32, []*tensor.Matrix32) {
	n, T, H := w.Rows, w.Cols, p.gruH
	if T == 0 {
		panic("infer: window has no timesteps")
	}
	xall := a.mat(n*T, 2)
	for i, v := range w.Data {
		xall.Data[2*i], xall.Data[2*i+1] = float32(v), 1
	}
	pre := a.mat(n*T, 3*H)
	tensor.MatMulBlockedInto32(pre, xall, p.fw)

	h := a.mat(n, H)
	h.Zero()
	zr := a.mat(n, 2*H)
	rh := a.mat(n, H)
	hc := a.mat(n, H)

	for t := 0; t < T; t++ {
		tensor.MatMulBlockedInto32(zr, h, p.uzr)
		for i := 0; i < n; i++ {
			gates := zr.Row(i)
			tensor.SigmoidAdd32(gates, gates, pre.Row(i*T + t)[:2*H])
			r, hrow, out := gates[H:][:H], h.Row(i)[:H], rh.Row(i)[:H]
			for j, v := range r {
				out[j] = v * hrow[j]
			}
		}
		tensor.MatMulBlockedInto32(hc, rh, p.uh)
		for i := 0; i < n; i++ {
			z, hrow, crow := zr.Row(i)[:H], h.Row(i)[:H], hc.Row(i)[:H]
			addAct32(crow, pre.Row(i*T + t)[2*H:], p.candAct)
			for j, zj := range z {
				hrow[j] = (1-zj)*crow[j] + zj*hrow[j]
			}
		}
		if all {
			st := a.mat(n, H)
			copy(st.Data, h.Data)
			a.states = append(a.states, st)
		}
	}
	return h, a.states
}

// attentionMix32 mirrors attentionMix with float64 transcendentals.
func (p *Predictor32) attentionMix32(a *arena32, states []*tensor.Matrix32) *tensor.Matrix32 {
	n, H := states[0].Rows, states[0].Cols
	attn := p.attnW.Cols

	st := a.mat(n, attn)
	exps := a.mat(n, len(states))
	total := a.mat(n, 1)
	total.Zero()
	for t, ht := range states {
		tensor.MatMulBlockedInto32(st, ht, p.attnW)
		for i := 0; i < n; i++ {
			row := st.Row(i)
			s := 0.0
			for j := 0; j < attn; j++ {
				s += math.Tanh(float64(row[j]+p.attnB[j])) * float64(p.attnV[j])
			}
			e := float32(math.Exp(s))
			exps.Data[i*exps.Cols+t] = e
			total.Data[i] += e
		}
	}
	out := a.mat(n, H)
	out.Zero()
	for t, ht := range states {
		for i := 0; i < n; i++ {
			alpha := exps.Data[i*exps.Cols+t] * (1 / total.Data[i])
			hrow, orow := ht.Row(i), out.Row(i)
			for j := range orow {
				orow[j] += hrow[j] * alpha
			}
		}
	}
	return out
}

// gatherEmbeddings32 gathers from the frozen float32 tables with the same
// <unk> clamping as the float64 path.
func (p *Predictor32) gatherEmbeddings32(a *arena32, envIDs [][]int, n int) *tensor.Matrix32 {
	dim := p.embedDim
	c := a.mat(n, len(p.tables)*dim)
	for k, tbl := range p.tables {
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

func denseForward32(a *arena32, d dense32, x *tensor.Matrix32) *tensor.Matrix32 {
	out := a.mat(x.Rows, d.w.Cols)
	tensor.MatMulBlockedInto32(out, x, d.w)
	for i := 0; i < out.Rows; i++ {
		addAct32(out.Row(i), d.b, d.act)
	}
	return out
}

func concatCols32(a *arena32, l, r *tensor.Matrix32) *tensor.Matrix32 {
	out := a.mat(l.Rows, l.Cols+r.Cols)
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		copy(row[:l.Cols], l.Row(i))
		copy(row[l.Cols:], r.Row(i))
	}
	return out
}

// rowDots32 writes the per-row inner product into the float64 result slice.
func rowDots32(out []float64, a, b *tensor.Matrix32) {
	for i := range out {
		arow, brow := a.Row(i), b.Row(i)
		var s float32
		for j, v := range arow {
			s += v * brow[j]
		}
		out[i] = float64(s)
	}
}

// addAct32 computes row = act(row + addend) — a dense layer's bias, or the
// input-side half of the GRU candidate. The logistic does both in one
// float32 kernel; tanh evaluates in float64 and rounds once.
func addAct32(row, addend []float32, act nn.Activation) {
	if act == nn.Sigmoid {
		tensor.SigmoidAdd32(row, row, addend)
		return
	}
	addend = addend[:len(row)]
	switch act {
	case nn.Linear:
		for j, v := range addend {
			row[j] += v
		}
	case nn.Tanh:
		for j, v := range addend {
			row[j] = float32(math.Tanh(float64(row[j] + v)))
		}
	case nn.ReLU:
		for j, v := range addend {
			row[j] = max(row[j]+v, 0)
		}
	default:
		panic(fmt.Sprintf("infer: unknown activation %d", int(act)))
	}
}
