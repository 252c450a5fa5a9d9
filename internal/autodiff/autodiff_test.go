package autodiff

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"env2vec/internal/tensor"
)

// numericalGrad computes the finite-difference gradient of loss() with
// respect to param, where loss rebuilds the whole graph from current
// parameter values.
func numericalGrad(param *tensor.Matrix, loss func() float64) *tensor.Matrix {
	const h = 1e-6
	g := tensor.New(param.Rows, param.Cols)
	for i := range param.Data {
		orig := param.Data[i]
		param.Data[i] = orig + h
		up := loss()
		param.Data[i] = orig - h
		down := loss()
		param.Data[i] = orig
		g.Data[i] = (up - down) / (2 * h)
	}
	return g
}

// recycledTape returns t emptied after another graph, with the first 64 Ki
// floats of its arena — several times what any graph in these tests takes —
// set to NaN first: a gradient the tape fails to zero, or a value an
// operation only partly overwrites, poisons whatever is computed from it.
// Taking one float at a time skips no chunk tail, so the poison has no gaps,
// and it grows the arena so that no graph here is served from a fresh,
// zeroed chunk.
func recycledTape(t *Tape) *Tape {
	t.Reset()
	for i := 0; i < 1<<16; i++ {
		t.mem.Take(1)[0] = math.NaN()
	}
	t.Reset()
	return t
}

// tapeSources is what every gradient check runs over: brand-new tapes, and
// one tape recycled before each use.
func tapeSources() map[string]func() *Tape {
	shared := NewTape()
	return map[string]func() *Tape{
		"fresh":    NewTape,
		"recycled": func() *Tape { return recycledTape(shared) },
	}
}

// checkGrad builds the graph via build (which must register params on the
// tape it is given, in order, and return the scalar loss node), and compares
// analytic gradients against finite differences for every parameter — once
// on fresh tapes and once on a recycled one.
func checkGrad(t *testing.T, params []*tensor.Matrix, build func(tp *Tape) *Node) {
	t.Helper()
	for name, newTape := range tapeSources() {
		tape := newTape()
		tape.Backward(build(tape))
		var analytic []*tensor.Matrix
		for _, n := range tape.nodes {
			if n.back == nil && n.requiresGrad {
				if len(analytic) == len(params) || n.Value != params[len(analytic)] {
					t.Fatalf("%s: param %d not registered in order", name, len(analytic))
				}
				// Cloned: the next newTape may recycle this very tape.
				analytic = append(analytic, n.Grad.Clone())
			}
		}
		if len(analytic) != len(params) {
			t.Fatalf("%s: expected %d params on tape, found %d", name, len(params), len(analytic))
		}
		for pi, p := range params {
			numeric := numericalGrad(p, func() float64 {
				return build(newTape()).Value.Data[0]
			})
			for i := range p.Data {
				a, n := analytic[pi].Data[i], numeric.Data[i]
				if !(math.Abs(a-n) <= 1e-4*(1+math.Abs(n))) {
					t.Fatalf("%s: param %d elem %d: analytic %g vs numeric %g", name, pi, i, a, n)
				}
			}
		}
	}
}

func randMat(rng *rand.Rand, r, c int) *tensor.Matrix {
	m := tensor.New(r, c)
	m.RandNormal(rng, 0.7)
	return m
}

func TestGradMatMulChain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w1 := randMat(rng, 4, 5)
	w2 := randMat(rng, 5, 2)
	x := randMat(rng, 3, 4)
	y := randMat(rng, 3, 2)
	checkGrad(t, []*tensor.Matrix{w1, w2}, func(tp *Tape) *Node {
		h := tp.MatMul(tp.Constant(x), tp.Param(w1))
		out := tp.MatMul(h, tp.Param(w2))
		return tp.MSE(out, y)
	})
}

func TestGradSigmoidTanhReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := randMat(rng, 3, 3)
	x := randMat(rng, 2, 3)
	y := randMat(rng, 2, 3)
	checkGrad(t, []*tensor.Matrix{w}, func(tp *Tape) *Node {
		h := tp.MatMul(tp.Constant(x), tp.Param(w))
		out := tp.ReLU(tp.Tanh(tp.Sigmoid(h)))
		return tp.MSE(out, y)
	})
}

func TestGradBiasBroadcast(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := randMat(rng, 4, 3)
	b := randMat(rng, 1, 3)
	x := randMat(rng, 5, 4)
	y := randMat(rng, 5, 3)
	checkGrad(t, []*tensor.Matrix{w, b}, func(tp *Tape) *Node {
		h := tp.AddRowBroadcast(tp.MatMul(tp.Constant(x), tp.Param(w)), tp.Param(b))
		return tp.MSE(tp.Sigmoid(h), y)
	})
}

func TestGradAddSubMulScale(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randMat(rng, 2, 3)
	b := randMat(rng, 2, 3)
	y := randMat(rng, 2, 3)
	checkGrad(t, []*tensor.Matrix{a, b}, func(tp *Tape) *Node {
		na, nb := tp.Param(a), tp.Param(b)
		expr := tp.Scale(tp.Mul(tp.Add(na, nb), tp.Sub(na, nb)), 0.5)
		return tp.MSE(expr, y)
	})
}

func TestGradConcatAndSumRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randMat(rng, 3, 2)
	b := randMat(rng, 3, 4)
	y := randMat(rng, 3, 1)
	checkGrad(t, []*tensor.Matrix{a, b}, func(tp *Tape) *Node {
		cat := tp.ConcatCols(tp.Param(a), tp.Param(b))
		return tp.MSE(tp.SumRows(tp.Tanh(cat)), y)
	})
}

func TestGradGatherRows(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	table := randMat(rng, 5, 3)
	y := randMat(rng, 4, 3)
	idx := []int{0, 2, 2, 4} // repeated index exercises gradient accumulation
	checkGrad(t, []*tensor.Matrix{table}, func(tp *Tape) *Node {
		emb := tp.GatherRows(tp.Param(table), idx)
		return tp.MSE(tp.Sigmoid(emb), y)
	})
}

// square is a caller-built operation: x² through Op, with its backward
// taking scratch from Mat.
func square(tp *Tape, a *Node) *Node {
	out := tp.Op(a.Value.Rows, a.Value.Cols, a.RequiresGrad(), func(out *Node) {
		twice := tp.Mat(a.Value.Rows, a.Value.Cols)
		tensor.ScaleInto(twice, a.Value, 2)
		for i, g := range out.Grad.Data {
			a.Grad.Data[i] += g * twice.Data[i]
		}
	})
	tensor.MulInto(out.Value, a.Value, a.Value)
	return out
}

func TestGradOpAndSliceRows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randMat(rng, 5, 3)
	y := randMat(rng, 2, 3)
	checkGrad(t, []*tensor.Matrix{a}, func(tp *Tape) *Node {
		sq := square(tp, tp.Sigmoid(tp.Param(a)))
		return tp.Add(tp.MSE(tp.SliceRowsNode(sq, 1, 3), y), tp.Mean(tp.SliceRowsNode(sq, 2, 5)))
	})
}

func TestSliceRowsNodeSharesRowsAndPanics(t *testing.T) {
	tape := NewTape()
	a := tape.Constant(&tensor.Matrix{Rows: 3, Cols: 2, Data: []float64{1, 2, 3, 4, 5, 6}})
	s := tape.SliceRowsNode(a, 1, 3)
	if s.Value.Rows != 2 || &s.Value.Data[0] != &a.Value.Data[2] || s.Value.Data[3] != 6 {
		t.Fatalf("rows [1,3) = %v, want a view of %v", s.Value, a.Value)
	}
	for _, r := range [][2]int{{-1, 1}, {2, 4}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SliceRowsNode%v of 3 rows did not panic", r)
				}
			}()
			tape.SliceRowsNode(a, r[0], r[1])
		}()
	}
}

// TestGradGRUStyleCell composes the exact ops used by the GRU layer (update
// gate, reset gate, candidate state, convex combination) and checks the full
// backward-through-time gradient for a two-step unroll.
func TestGradGRUStyleCell(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const hid = 3
	wz := randMat(rng, 1, hid)
	uz := randMat(rng, hid, hid)
	wr := randMat(rng, 1, hid)
	ur := randMat(rng, hid, hid)
	wh := randMat(rng, 1, hid)
	uh := randMat(rng, hid, hid)
	xs := []*tensor.Matrix{randMat(rng, 2, 1), randMat(rng, 2, 1)}
	y := randMat(rng, 2, hid)
	checkGrad(t, []*tensor.Matrix{wz, uz, wr, ur, wh, uh}, func(tp *Tape) *Node {
		nwz, nuz := tp.Param(wz), tp.Param(uz)
		nwr, nur := tp.Param(wr), tp.Param(ur)
		nwh, nuh := tp.Param(wh), tp.Param(uh)
		h, ones := tp.Constant(tensor.New(2, hid)), tp.Constant(tensor.New(2, hid))
		for i := range ones.Value.Data {
			ones.Value.Data[i] = 1
		}
		for _, x := range xs {
			nx := tp.Constant(x)
			z := tp.Sigmoid(tp.Add(tp.MatMul(nx, nwz), tp.MatMul(h, nuz)))
			r := tp.Sigmoid(tp.Add(tp.MatMul(nx, nwr), tp.MatMul(h, nur)))
			hc := tp.Tanh(tp.Add(tp.MatMul(nx, nwh), tp.MatMul(tp.Mul(r, h), nuh)))
			h = tp.Add(tp.Mul(tp.Sub(ones, z), hc), tp.Mul(z, h))
		}
		return tp.MSE(h, y)
	})
}

func TestGradExpReciprocal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randMat(rng, 2, 3)
	// Shift values away from zero so 1/x stays well-conditioned.
	for i := range a.Data {
		a.Data[i] = 1.5 + math.Abs(a.Data[i])
	}
	y := randMat(rng, 2, 3)
	checkGrad(t, []*tensor.Matrix{a}, func(tp *Tape) *Node {
		return tp.MSE(tp.Reciprocal(tp.Exp(tp.Param(a))), y)
	})
}

// TestGradSoftmaxComposition checks the exact softmax-over-steps shape the
// attention layer uses: α_t = exp(s_t) / Σ exp(s_k).
func TestGradSoftmaxComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	w := randMat(rng, 3, 1)
	xs := []*tensor.Matrix{randMat(rng, 2, 3), randMat(rng, 2, 3), randMat(rng, 2, 3)}
	y := randMat(rng, 2, 1)
	checkGrad(t, []*tensor.Matrix{w}, func(tp *Tape) *Node {
		nw := tp.Param(w)
		var exps []*Node
		var total *Node
		for _, x := range xs {
			e := tp.Exp(tp.MatMul(tp.Constant(x), nw))
			exps = append(exps, e)
			if total == nil {
				total = e
			} else {
				total = tp.Add(total, e)
			}
		}
		inv := tp.Reciprocal(total)
		var mix *Node
		for i, e := range exps {
			contrib := tp.Mul(tp.Mul(e, inv), tp.Constant(&tensor.Matrix{Rows: 2, Cols: 1, Data: []float64{float64(i), float64(i) + 1}}))
			if mix == nil {
				mix = contrib
			} else {
				mix = tp.Add(mix, contrib)
			}
		}
		return tp.MSE(mix, y)
	})
}

func TestDropoutMaskAndNoOp(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randMat(rng, 2, 4)
	tape := NewTape()
	na := tape.Constant(a)
	if tape.Dropout(na, nil, 0.5) != na {
		t.Fatalf("nil mask must be identity")
	}
	mask := &tensor.Matrix{Rows: 2, Cols: 4, Data: []float64{1, 0, 1, 0, 0, 1, 0, 1}}
	out := tape.Dropout(na, mask, 0.5)
	for i, v := range out.Value.Data {
		want := a.Data[i] * mask.Data[i] * 2
		if math.Abs(v-want) > 1e-12 {
			t.Fatalf("dropout elem %d: got %v want %v", i, v, want)
		}
	}
}

func TestGradThroughDropout(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	w := randMat(rng, 3, 4)
	x := randMat(rng, 2, 3)
	y := randMat(rng, 2, 4)
	mask := &tensor.Matrix{Rows: 2, Cols: 4, Data: []float64{1, 0, 1, 1, 0, 1, 1, 0}}
	checkGrad(t, []*tensor.Matrix{w}, func(tp *Tape) *Node {
		h := tp.MatMul(tp.Constant(x), tp.Param(w))
		return tp.MSE(tp.Dropout(tp.Sigmoid(h), mask, 0.75), y)
	})
}

func TestBackwardRequiresScalar(t *testing.T) {
	tape := NewTape()
	p := tape.Param(tensor.New(2, 2))
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for non-scalar Backward")
		}
	}()
	tape.Backward(p)
}

func TestBackwardOnConstantGraphIsNoOp(t *testing.T) {
	tape := NewTape()
	c := tape.Constant(&tensor.Matrix{Rows: 1, Cols: 1, Data: []float64{2}})
	out := tape.Mean(c)
	tape.Backward(out) // must not panic even though nothing requires grad
	if out.Grad != nil {
		t.Fatalf("constant graph should not allocate gradients")
	}
}

func TestMeanValue(t *testing.T) {
	tape := NewTape()
	c := tape.Constant(&tensor.Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}})
	if got := tape.Mean(c).Value.Data[0]; got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

// Property: for the scalar function f(w) = mean((x·w − y)²), the analytic
// gradient matches finite differences for random shapes.
func TestGradLinearRegressionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, d := 1+rng.Intn(5), 1+rng.Intn(5)
		x := randMat(rng, n, d)
		w := randMat(rng, d, 1)
		y := randMat(rng, n, 1)
		build := func(tp *Tape) *Node {
			return tp.MSE(tp.MatMul(tp.Constant(x), tp.Param(w)), y)
		}
		for _, newTape := range tapeSources() {
			tape := newTape()
			loss := build(tape)
			tape.Backward(loss)
			var grad *tensor.Matrix
			for _, nd := range tape.nodes {
				if nd.Value == w {
					grad = nd.Grad.Clone()
				}
			}
			numeric := numericalGrad(w, func() float64 {
				return build(newTape()).Value.Data[0]
			})
			for i := range w.Data {
				if !(math.Abs(grad.Data[i]-numeric.Data[i]) <= 1e-4*(1+math.Abs(numeric.Data[i]))) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// everyOp builds a graph through every operation the tape has, over batch
// rows, and returns its loss and parameter leaves.
func everyOp(tp *Tape, rng *rand.Rand, batch int) (loss *Node, params []*Node) {
	const in, hid = 3, 5
	x, y := randMat(rng, batch, in), randMat(rng, batch, 1)
	w, b, u := tp.Param(randMat(rng, in, hid)), tp.Param(randMat(rng, 1, hid)), tp.Param(randMat(rng, hid, hid))
	table := tp.Param(randMat(rng, 4, hid))
	idx := make([]int, batch)
	mask := tensor.New(batch, hid)
	for i := range idx {
		idx[i] = rng.Intn(4)
		mask.Data[i*hid+rng.Intn(hid)] = 1
	}
	h0, ones := tp.Mat(batch, hid), tp.Mat(batch, hid)
	h0.Zero()
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	h := tp.Sigmoid(tp.AddRowBroadcast(tp.Add(tp.MatMul(tp.Constant(x), w), tp.MatMul(tp.Constant(h0), u)), b))
	h = tp.Add(tp.Mul(tp.Sub(tp.Constant(ones), h), tp.ReLU(tp.MatMul(h, u))), tp.Mul(h, tp.Tanh(tp.MatMul(h, u))))
	h = tp.Dropout(tp.Sub(h, tp.Scale(tp.GatherRows(table, idx), 0.5)), mask, 0.8)
	wide := tp.ConcatCols(h, tp.Reciprocal(tp.Exp(tp.SliceColsNode(h, 1, 3))))
	tail := square(tp, tp.SliceRowsNode(wide, 1, batch))
	return tp.Add(tp.Add(tp.MSE(tp.SumRows(wide), y), tp.Mean(wide)), tp.Mean(tail)), []*Node{w, b, u, table}
}

// TestResetTapeIsFreshTape runs one step on a tape, resets it and runs a
// second step of other shapes: loss and every gradient must equal, bit for
// bit, the same second step on a tape nothing has used.
func TestResetTapeIsFreshTape(t *testing.T) {
	reused := NewTape()
	loss, _ := everyOp(reused, rand.New(rand.NewSource(1)), 7)
	reused.Backward(loss)
	recycledTape(reused)
	for step := 2; step <= 3; step++ { // the third reuses the second's memory unpoisoned
		gotLoss, gotParams := everyOp(reused, rand.New(rand.NewSource(int64(step))), 3+step)
		reused.Backward(gotLoss)
		fresh := &Tape{}
		wantLoss, wantParams := everyOp(fresh, rand.New(rand.NewSource(int64(step))), 3+step)
		fresh.Backward(wantLoss)
		if g, w := gotLoss.Value.Data[0], wantLoss.Value.Data[0]; math.Float64bits(g) != math.Float64bits(w) || math.IsNaN(w) {
			t.Fatalf("step %d: loss %v on the reused tape, %v on a fresh one", step, g, w)
		}
		for pi, p := range wantParams {
			for i, w := range p.Grad.Data {
				if g := gotParams[pi].Grad.Data[i]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("step %d: param %d gradient elem %d: %v on the reused tape, %v on a fresh one", step, pi, i, g, w)
				}
			}
		}
		reused.Reset()
	}
}

// TestBackwardTemporariesAreReleased pins the arena discipline of the
// backward sweep: what a closure takes is given back when it returns, so a
// graph's footprint is its values and gradients, not its transposes.
func TestBackwardTemporariesAreReleased(t *testing.T) {
	tape := &Tape{}
	loss, _ := everyOp(tape, rand.New(rand.NewSource(1)), 6)
	before := tape.mem.Mark()
	tape.Backward(loss)
	if after := tape.mem.Mark(); after != before {
		t.Fatalf("backward sweep moved the arena from %+v to %+v", before, after)
	}
}

// TestReleasedTapeComesBackEmpty checks the pool round trip in both modes.
func TestReleasedTapeComesBackEmpty(t *testing.T) {
	tape := NewTape()
	loss, _ := everyOp(tape, rand.New(rand.NewSource(1)), 4)
	tape.Backward(loss)
	tape.Release()
	for _, next := range []*Tape{NewInferenceTape(), NewTape()} {
		if len(next.nodes) != 0 || next.mem.Mark() != (tensor.ArenaMark{}) {
			t.Fatalf("a tape from the pool still holds %d nodes at %+v", len(next.nodes), next.mem.Mark())
		}
		p := next.Param(tensor.New(2, 2))
		if got := next.Sum(p); next.Inference() != (got.Grad == nil) {
			t.Fatalf("inference=%v tape: gradient allocated = %v", next.Inference(), got.Grad != nil)
		}
		next.Release()
	}
}
