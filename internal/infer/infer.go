// Package infer is the tape-free forward pass that scores and serves. The
// autodiff tape in internal/autodiff is the right tool for training — every
// op records a backward closure and keeps what it reads — but a prediction
// pays those training-time costs for nothing: a node and a value matrix per
// op, and every GRU step's gates and candidates kept for a backward that
// never runs. Predictor[T]
// writes the Env2Vec forward pass once, as straight-line kernels over
// tensor.Mat[T], for both precisions:
//
//   - the weights are packed for the kernels, and the window for the batch:
//     [Wz|Wr] over [bz|br] is one 2×2H matrix and Wh over bh one 2×H, so the
//     input-side contributions of the whole window, biases included, are two
//     (steps·n)×2 products against the window laid out as (x, 1) pairs —
//     step-major, row t·n+i, so that what step t adds to the whole batch is
//     one contiguous block shaped like the matrices the step computes;
//     [Uz|Ur] is one H×2H matrix, so a GRU step is two products — h·[Uz|Ur]
//     and (r⊙h)·Uh — and four calls that each run once over the batch, not
//     once per row: one logistic turning the n×2H [z|r] pre-activations into
//     gates in place, r⊙h, the candidate's add-and-activate, and the blend
//     (tensor.SigmoidAdd, GateMul, AddReLU, GateBlend: AVX2 kernels in both
//     precisions on amd64 — the float64 ones the Go expressions to the bit —
//     and the plain Go expressions everywhere else);
//   - every temporary comes from a per-pass tensor.Arena recycled through a
//     sync.Pool, so steady-state prediction does no heap allocation beyond
//     the slice Predict returns;
//   - bias addition and activations fuse into the kernels that consume them.
//
// Exactly two configurations exist, chosen by the constructor and nothing
// else. NewPredictor is float64 and LIVE: it packs at the top of every pass,
// into the pass's arena, and every matrix that needs no repacking is viewed
// in place — only the packed GRU blocks (2·3H + 2H² floats) are copied —
// so it tracks optimizer steps and snapshot restores with no refresh call,
// and any number of goroutines may predict over a shared model.
// NewPredictor32 is float32 and FROZEN: it rounds and packs once, at
// construction — the serving contract, where a bundle is immutable after
// load — never reads the source layers again, and so does not race with
// training of the model it came from.
//
// Numerics. The tape (core.Model.PredictTape) stays the separately written
// reference: training and gradient checks use it and the parity batteries
// in internal/core compare against it. float64: same kernels, same
// accumulation order and the tape's exact 1/(1+exp(−x)), but one different
// association — a gate here is σ(h·U + (x·W + b)) where the tape computes
// σ((x·W + h·U) + b) — so the two agree to round-off, not bit for bit: the
// contract is ≤ 1e-12 relative, the battery's worst case is 1.4e-15. float32:
// weights round once at construction and inputs once per call; the logistic
// is tensor.SigmoidAdd's float32 polynomial (≤ 2 ulp; a window is ~1 300
// gate sigmoids per row, a fifth of the pass even as a vector kernel); the
// other elementwise kernels round exactly as the Go expressions they
// replaced; tanh and the attention softmax evaluate in float64 and round
// once (no default model puts them on the hot path). End to end float32
// agrees with the tape to ~1e-6 relative; the battery asserts a conservative
// 1e-4 — docs/performance.md has the error budget.
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

// Network references the layers of an assembled Env2Vec model. The live
// predictor reads weights through these references at call time, so the
// caller may keep training or restoring the same layers without rebuilding
// anything.
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

// Predictor runs the fused forward pass in precision T. It is safe for
// concurrent use. Inputs arrive and results leave as float64 — precision is
// an implementation detail of whoever built the predictor, invisible in the
// API.
type Predictor[T tensor.Float] struct {
	net    Network     // read on every pass when frozen is nil
	frozen *weights[T] // packed once by NewPredictor32; nil means live
	pool   sync.Pool   // of *scratch[T]
}

// NewPredictor validates the network wiring and returns the live float64
// predictor over it.
func NewPredictor(net Network) *Predictor[float64] {
	validateNetwork(net)
	return &Predictor[float64]{net: net}
}

// NewPredictor32 validates the network wiring and snapshots its weights into
// a frozen float32 predictor. The conversion rounds every weight exactly
// once; later optimizer steps or restores on the source layers are NOT
// reflected — build another to pick up new weights.
func NewPredictor32(net Network) *Predictor[float32] {
	validateNetwork(net)
	p := &Predictor[float32]{frozen: new(weights[float32])}
	p.frozen.pack(net, new(tensor.Arena[float32])) // an arena nobody rewinds: the heap
	return p
}

// validateNetwork panics on a network the pass cannot run. The kernels work
// on whole matrices and take their shapes on faith — packing copies rows by
// the GRU's width, one flat call adds a bias or gates a batch — so a wrong
// shape is refused here, at construction, where the message can name it, and
// not as an index out of range (or a silently ignored tail) mid-pass.
func validateNetwork(net Network) {
	if net.FNNHidden == nil || net.GRU == nil || net.Dense == nil {
		panic("infer: network is missing a layer")
	}
	g := net.GRU
	for _, p := range []*nn.Param{g.Wz, g.Wr, g.Wh, g.Bz, g.Br, g.Bh} {
		wantShape(p, 1, g.Hidden)
	}
	for _, p := range []*nn.Param{g.Uz, g.Ur, g.Uh} {
		wantShape(p, g.Hidden, g.Hidden)
	}
	if len(net.Embeddings) == 0 {
		panic("infer: network has no embedding tables")
	}
	dim := net.Embeddings[0].Table.Value.Cols
	for _, e := range net.Embeddings {
		wantShape(e.Table, e.Table.Value.Rows, dim) // the gather reads every table at one width
	}
	layers := []*nn.Dense{net.FNNHidden, net.Dense}
	switch net.Head {
	case HeadHadamard:
		if got, want := net.Dense.W.Value.Cols, len(net.Embeddings)*dim; got != want {
			panic(fmt.Sprintf("infer: Hadamard head over %d dense features and %d embedding columns", got, want))
		}
	case HeadBilinear:
		if net.Bilinear == nil {
			panic("infer: bilinear head without R matrix")
		}
	case HeadMLP:
		if net.HeadMLP == nil {
			panic("infer: MLP head without its MLP")
		}
		layers = append(layers, net.HeadMLP.Hidden, net.HeadMLP.Out)
	default:
		panic(fmt.Sprintf("infer: unknown prediction head %d", int(net.Head)))
	}
	for _, d := range layers {
		wantShape(d.B, 1, d.W.Value.Cols)
	}
}

func wantShape(p *nn.Param, rows, cols int) {
	if v := p.Value; v.Rows != rows || v.Cols != cols {
		panic(fmt.Sprintf("infer: %s is %dx%d, want %dx%d", p.Name, v.Rows, v.Cols, rows, cols))
	}
}

// scratch is what one forward pass owns: the arena its temporaries are
// carved from, the per-step hidden states the attention variant keeps, and
// — for the live predictor — the pass's packed weights.
type scratch[T tensor.Float] struct {
	tensor.Arena[T]
	states []*tensor.Mat[T]
	live   weights[T]
}

// dense is one packed dense layer: act(x·W + b).
type dense[T tensor.Float] struct {
	w   *tensor.Mat[T]
	b   []T
	act nn.Activation
}

// weights is the network as the kernels read it.
type weights[T tensor.Float] struct {
	head Head

	fnn, dense dense[T]

	wzr     *tensor.Mat[T] // 2×2H: [Wz|Wr] over [bz|br]
	wh      *tensor.Mat[T] // 2×H: Wh over bh
	uzr     *tensor.Mat[T] // H×2H: [Uz|Ur], the fused recurrent block
	uh      *tensor.Mat[T]
	candAct nn.Activation

	tables []*tensor.Mat[T]

	attnW        *tensor.Mat[T] // nil when the model has no attention
	attnB, attnV []T

	bilinear   *tensor.Mat[T]
	mlpH, mlpO dense[T]
}

// load makes a float64 matrix readable as a Mat[T]: in place under a
// recycled header when T is float64, as a copy rounded once when it is not.
func load[T tensor.Float](a *tensor.Arena[T], src *tensor.Matrix) *tensor.Mat[T] {
	if same, ok := any(src).(*tensor.Mat[T]); ok {
		return a.View(same.Rows, same.Cols, same.Data)
	}
	m := a.Mat(src.Rows, src.Cols)
	convert(m.Data, src.Data)
	return m
}

func convert[T tensor.Float](dst []T, src []float64) {
	for i, v := range src {
		dst[i] = T(v)
	}
}

func loadDense[T tensor.Float](a *tensor.Arena[T], d *nn.Dense) dense[T] {
	return dense[T]{w: load(a, d.W.Value), b: load(a, d.B.Value).Data, act: d.Act}
}

// pack reads the network's current weights into w, carving from a whatever
// has to be copied. It allocates nothing once a and w.tables are warm.
func (w *weights[T]) pack(net Network, a *tensor.Arena[T]) {
	g := net.GRU
	H := g.Hidden
	w.head = net.Head
	w.fnn, w.dense = loadDense(a, net.FNNHidden), loadDense(a, net.Dense)

	// The GRU input is a scalar (validateNetwork), so an input-side product
	// is x·W; the bias sits in a second row and meets a constant 1 beside x,
	// which makes the input GEMM add it for free.
	w.wzr, w.wh = a.Mat(2, 2*H), a.Mat(2, H)
	for k, row := range [2][3]*nn.Param{{g.Wz, g.Wr, g.Wh}, {g.Bz, g.Br, g.Bh}} {
		convert(w.wzr.Row(k)[:H], row[0].Value.Data)
		convert(w.wzr.Row(k)[H:], row[1].Value.Data)
		convert(w.wh.Row(k), row[2].Value.Data)
	}
	w.uzr = a.Mat(H, 2*H)
	for i := 0; i < H; i++ {
		row := w.uzr.Row(i)
		convert(row[:H], g.Uz.Value.Row(i))
		convert(row[H:], g.Ur.Value.Row(i))
	}
	w.uh, w.candAct = load(a, g.Uh.Value), g.CandidateAct

	w.tables = w.tables[:0]
	for _, e := range net.Embeddings {
		w.tables = append(w.tables, load(a, e.Table.Value))
	}
	if at := net.Attention; at != nil {
		w.attnW, w.attnB, w.attnV = load(a, at.W.Value), load(a, at.B.Value).Data, load(a, at.V.Value).Data
	}
	switch net.Head {
	case HeadBilinear:
		w.bilinear = load(a, net.Bilinear)
	case HeadMLP:
		w.mlpH, w.mlpO = loadDense(a, net.HeadMLP.Hidden), loadDense(a, net.HeadMLP.Out)
	}
}

// Predict returns one prediction per batch row.
func (p *Predictor[T]) Predict(b *nn.Batch) []float64 {
	out := make([]float64, b.X.Rows)
	p.PredictInto(out, b)
	return out
}

// PredictInto writes one prediction per batch row into out, which must be
// batch-sized. This is the zero-allocation entry point for callers that
// manage their own result storage.
func (p *Predictor[T]) PredictInto(out []float64, b *nn.Batch) {
	if b.Window == nil {
		panic("infer: batch has no RU-history window")
	}
	n := b.X.Rows
	if b.Window.Rows != n {
		panic(fmt.Sprintf("infer: window has %d rows for %d examples", b.Window.Rows, n))
	}
	if len(out) != n {
		panic(fmt.Sprintf("infer: out has %d slots for %d examples", len(out), n))
	}
	s, _ := p.pool.Get().(*scratch[T])
	if s == nil {
		s = new(scratch[T])
	}
	defer p.pool.Put(s)
	a := &s.Arena
	a.Reset()
	s.states = s.states[:0]
	w := p.frozen
	if w == nil {
		w = &s.live
		w.pack(p.net, a)
	}
	if len(b.EnvIDs) != len(w.tables) {
		panic(fmt.Sprintf("infer: batch has %d env id features, model wants %d", len(b.EnvIDs), len(w.tables)))
	}

	vfs := denseForward(a, w.fnn, load(a, b.X))
	vts := w.gruWindow(s, b.Window)
	if w.attnW != nil {
		vts = w.attentionMix(s)
	}
	vd := denseForward(a, w.dense, concatCols(a, vts, vfs))
	c := w.gatherEmbeddings(a, b.EnvIDs, n)

	switch w.head {
	case HeadBilinear:
		vr := a.Mat(n, w.bilinear.Cols)
		tensor.MatMulBlockedInto(vr, vd, w.bilinear)
		rowDots(out, vr, c)
	case HeadMLP:
		y := denseForward(a, w.mlpO, denseForward(a, w.mlpH, concatCols(a, vd, c)))
		for i, v := range y.Data {
			out[i] = float64(v)
		}
	default:
		rowDots(out, vd, c)
	}
}

// gruWindow runs the fused GRU over a batch×steps scalar window and returns
// the final hidden state; with attention it also leaves every step's state
// in s.states.
func (w *weights[T]) gruWindow(s *scratch[T], win *tensor.Matrix) *tensor.Mat[T] {
	n, steps, H := win.Rows, win.Cols, w.uh.Rows
	if steps == 0 {
		panic("infer: window has no timesteps")
	}
	// The window goes in step-major — row t·n+i is example i at step t — so
	// that the n rows a step reads are one contiguous block, shaped exactly
	// like the matrices the step computes: preZR's block t is the addend of
	// the whole batch's [z|r] pre-activations, preH's that of the candidate.
	xall := s.Mat(steps*n, 2)
	for i := 0; i < n; i++ {
		for t, v := range win.Row(i) {
			xall.Data[2*(t*n+i)], xall.Data[2*(t*n+i)+1] = T(v), 1
		}
	}
	preZR, preH := s.Mat(steps*n, 2*H), s.Mat(steps*n, H)
	tensor.MatMulBlockedInto(preZR, xall, w.wzr)
	tensor.MatMulBlockedInto(preH, xall, w.wh)

	h := s.Mat(n, H)
	h.Zero()
	zr := s.Mat(n, 2*H)
	rh := s.Mat(n, H)
	hc := s.Mat(n, H)

	for t := 0; t < steps; t++ {
		// z = σ(h·Uz + x·Wz + bz) and r = σ(h·Ur + x·Wr + br), side by side,
		// then r ⊙ h: each one call over the batch.
		tensor.MatMulBlockedInto(zr, h, w.uzr)
		tensor.SigmoidAdd(zr.Data, zr.Data, preZR.Data[t*n*2*H:][:n*2*H])
		tensor.GateMul(rh.Data, zr.Data, h.Data, H)
		// h′ = act((r ⊙ h)·Uh + x·Wh + bh), then h = (1−z) ⊙ h′ + z ⊙ h.
		tensor.MatMulBlockedInto(hc, rh, w.uh)
		addAct(hc.Data, preH.Data[t*n*H:][:n*H], w.candAct)
		tensor.GateBlend(h.Data, zr.Data, hc.Data, H)
		if w.attnW != nil {
			st := s.Mat(n, H)
			copy(st.Data, h.Data)
			s.states = append(s.states, st)
		}
	}
	return h
}

// attentionMix replicates nn.Attention.Forward over s.states: additive
// scores, an exp/sum softmax accumulated in step order, and the weighted
// state mixture. The transcendentals evaluate in float64 and round once.
func (w *weights[T]) attentionMix(s *scratch[T]) *tensor.Mat[T] {
	n, H := s.states[0].Rows, s.states[0].Cols
	attn := w.attnW.Cols

	st := s.Mat(n, attn)
	exps := s.Mat(n, len(s.states)) // exps[i][t] = exp(score of state t, row i)
	total := s.Mat(n, 1)
	total.Zero()
	for t, ht := range s.states {
		tensor.MatMulBlockedInto(st, ht, w.attnW)
		for i := 0; i < n; i++ {
			row := st.Row(i)
			sum := 0.0
			for j := 0; j < attn; j++ {
				sum += math.Tanh(float64(row[j]+w.attnB[j])) * float64(w.attnV[j])
			}
			e := T(math.Exp(sum))
			exps.Set(i, t, e)
			total.Data[i] += e
		}
	}
	out := s.Mat(n, H)
	out.Zero()
	for t, ht := range s.states {
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
func (w *weights[T]) gatherEmbeddings(a *tensor.Arena[T], envIDs [][]int, n int) *tensor.Mat[T] {
	dim := w.tables[0].Cols
	c := a.Mat(n, len(w.tables)*dim)
	for k, tbl := range w.tables {
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
func denseForward[T tensor.Float](a *tensor.Arena[T], d dense[T], x *tensor.Mat[T]) *tensor.Mat[T] {
	out := a.Mat(x.Rows, d.w.Cols)
	tensor.MatMulBlockedInto(out, x, d.w)
	for i := 0; i < out.Rows; i++ {
		addAct(out.Row(i), d.b, d.act)
	}
	return out
}

func concatCols[T tensor.Float](a *tensor.Arena[T], l, r *tensor.Mat[T]) *tensor.Mat[T] {
	out := a.Mat(l.Rows, l.Cols+r.Cols)
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		copy(row[:l.Cols], l.Row(i))
		copy(row[l.Cols:], r.Row(i))
	}
	return out
}

// rowDots writes the per-row inner product of two equal-shape matrices —
// SumRows(Mul(a, b)) without the intermediate — accumulated in T.
func rowDots[T tensor.Float](out []float64, a, b *tensor.Mat[T]) {
	for i := range out {
		arow, brow := a.Row(i), b.Row(i)
		var s T
		for j, v := range arow {
			s += v * brow[j]
		}
		out[i] = float64(s)
	}
}

// addAct computes row = act(row + addend), the two equally long — a dense
// layer's output row and its bias, or a whole batch of GRU candidates and
// the input-side half of their pre-activations. The logistic and the ReLU
// each do both in one kernel; tanh evaluates in float64 and rounds once.
func addAct[T tensor.Float](row, addend []T, act nn.Activation) {
	switch act {
	case nn.Sigmoid:
		tensor.SigmoidAdd(row, row, addend)
	case nn.ReLU:
		tensor.AddReLU(row, row, addend)
	case nn.Linear:
		for j, v := range addend[:len(row)] {
			row[j] += v
		}
	case nn.Tanh:
		for j, v := range addend[:len(row)] {
			row[j] = T(math.Tanh(float64(row[j] + v)))
		}
	default:
		panic(fmt.Sprintf("infer: unknown activation %d", int(act)))
	}
}
