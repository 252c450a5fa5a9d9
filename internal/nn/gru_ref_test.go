package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"env2vec/internal/autodiff"
	"env2vec/internal/tensor"
)

// refStates is the GRU as it was before the recurrence became one tape node:
// every operation of every step its own node, every step's state returned.
// TestGRUSequenceMatchesUnroll holds the node to it bit for bit.
func refStates(g *GRU, t *autodiff.Tape, window *autodiff.Node) []*autodiff.Node {
	n, steps := window.Value.Rows, window.Value.Cols
	wz, uz, bz := g.Wz.Bind(t), g.Uz.Bind(t), g.Bz.Bind(t)
	wr, ur, br := g.Wr.Bind(t), g.Ur.Bind(t), g.Br.Bind(t)
	wh, uh, bh := g.Wh.Bind(t), g.Uh.Bind(t), g.Bh.Bind(t)
	ones := tensor.New(n, g.Hidden)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	h := t.Constant(tensor.New(n, g.Hidden))
	out := make([]*autodiff.Node, 0, steps)
	for j := 0; j < steps; j++ {
		x := t.SliceColsNode(window, j, j+1)
		z := t.Sigmoid(t.AddRowBroadcast(t.Add(t.MatMul(x, wz), t.MatMul(h, uz)), bz))
		r := t.Sigmoid(t.AddRowBroadcast(t.Add(t.MatMul(x, wr), t.MatMul(h, ur)), br))
		hc := g.CandidateAct.Apply(t, t.AddRowBroadcast(t.Add(t.MatMul(x, wh), t.MatMul(t.Mul(r, h), uh)), bh))
		h = t.Add(t.Mul(t.Sub(t.Constant(ones), z), hc), t.Mul(z, h))
		out = append(out, h)
	}
	return out
}

// gruCase is one configuration of the oracle battery.
type gruCase struct {
	act              Activation
	hidden, steps, n int
	all              bool // a consumer on every state, not only the last
	paramWindow      bool // the window is a tape parameter, so its gradient is compared
	special          int  // 0 finite; 1 ±Inf and NaN in the window; 2 one in the weights
	seed             int64
}

func (c gruCase) String() string {
	return fmt.Sprintf("act=%v H=%d T=%d n=%d all=%v paramWindow=%v special=%d seed=%d",
		c.act, c.hidden, c.steps, c.n, c.all, c.paramWindow, c.special, c.seed)
}

// sample draws an operand: a third of them zeros, half of those −0.
func sample(rng *rand.Rand, scale float64) float64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	}
	return rng.NormFloat64() * scale
}

// named is one compared quantity.
type named struct {
	name string
	vals []float64
}

// outcome runs the case on a fresh tape through states and returns the loss,
// every consumed state, the nine parameter gradients and, for a parameter
// window, the window's gradient. The loss is Σ_k Σ state_k ⊙ C_k over the
// consumed states, so each state's gradient block starts as the arbitrary C_k.
func (c gruCase) outcome(g *GRU, window *tensor.Matrix, consumers []*tensor.Matrix, states func(t *autodiff.Tape, w *autodiff.Node) []*autodiff.Node) []named {
	tape := autodiff.NewTape()
	defer tape.Release()
	w := tape.Constant(window)
	if c.paramWindow {
		w = tape.Param(window)
	}
	hs := states(tape, w)
	var loss *autodiff.Node
	for k, h := range hs {
		term := tape.Sum(tape.Mul(h, tape.Constant(consumers[len(consumers)-len(hs)+k])))
		if loss == nil {
			loss = term
		} else {
			loss = tape.Add(loss, term)
		}
	}
	tape.Backward(loss)
	clone := func(m *tensor.Matrix) []float64 { return append([]float64(nil), m.Data...) }
	out := []named{{"loss", clone(loss.Value)}}
	for k, h := range hs {
		out = append(out, named{fmt.Sprintf("state %d", len(consumers)-len(hs)+k), clone(h.Value)})
	}
	for _, p := range g.Params() {
		out = append(out, named{p.Name + " gradient", clone(p.Grad())})
	}
	if c.paramWindow {
		out = append(out, named{"window gradient", clone(w.Grad)})
	}
	return out
}

// check builds the case's GRU, window and consumers from its seed and
// compares the fused node with the per-operation reference by Float64bits.
// A NaN matches any NaN: Go leaves NaN payloads unspecified.
func (c gruCase) check(t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(c.seed))
	g := NewGRU("g", c.hidden, rng)
	g.CandidateAct = c.act
	for _, p := range g.Params() {
		for i := range p.Value.Data {
			p.Value.Data[i] = sample(rng, 1/math.Sqrt(float64(p.Value.Rows)))
		}
	}
	window := tensor.New(c.n, c.steps)
	for i := range window.Data {
		window.Data[i] = sample(rng, 1)
	}
	consumers := make([]*tensor.Matrix, c.steps)
	for k := range consumers {
		consumers[k] = tensor.New(c.n, c.hidden)
		for i := range consumers[k].Data {
			consumers[k].Data[i] = sample(rng, 1)
		}
	}
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	switch c.special {
	case 1:
		for i := range window.Data {
			if rng.Intn(16) == 0 {
				window.Data[i] = specials[rng.Intn(3)]
			}
		}
	case 2:
		ps := g.Params()
		p := ps[rng.Intn(len(ps))]
		p.Value.Data[rng.Intn(len(p.Value.Data))] = specials[rng.Intn(3)]
	}

	want := c.outcome(g, window, consumers, func(t *autodiff.Tape, w *autodiff.Node) []*autodiff.Node {
		hs := refStates(g, t, w)
		if c.all {
			return hs
		}
		return hs[len(hs)-1:]
	})
	got := c.outcome(g, window, consumers, func(t *autodiff.Tape, w *autodiff.Node) []*autodiff.Node {
		if c.all {
			return g.ForwardWindowAll(t, w)
		}
		return []*autodiff.Node{g.ForwardWindow(t, w)}
	})
	if len(got) != len(want) {
		t.Fatalf("%v: %d quantities, the reference has %d", c, len(got), len(want))
	}
	for q, w := range want {
		for i, wv := range w.vals {
			gv := got[q].vals[i]
			if math.Float64bits(gv) != math.Float64bits(wv) && !(math.IsNaN(gv) && math.IsNaN(wv)) {
				t.Fatalf("%v: %s element %d is %v (%016x), the per-op graph's %v (%016x)",
					c, w.name, i, gv, math.Float64bits(gv), wv, math.Float64bits(wv))
			}
		}
	}
}

// TestGRUSequenceMatchesUnroll holds the recurrence node to the per-operation
// graph it replaced, bit for bit: every consumed state, the loss, all nine
// parameter gradients and the window's, over every activation, widths on
// and off the kernels' lane counts, one to twenty steps, batches of one to
// thirty-two, a consumer on the last state or on every state, a constant or
// a parameter window, and operands a third of them ±0, some cases with ±Inf
// and NaN in the window or the weights.
func TestGRUSequenceMatchesUnroll(t *testing.T) {
	seed := int64(0)
	for _, act := range []Activation{ReLU, Tanh, Sigmoid, Linear} {
		for _, hidden := range []int{1, 3, 8, 17, 32} {
			for _, steps := range []int{1, 2, 20} {
				for _, n := range []int{1, 5, 32} {
					for _, all := range []bool{false, true} {
						for _, paramWindow := range []bool{false, true} {
							seed++
							gruCase{act, hidden, steps, n, all, paramWindow, int(seed % 3), seed}.check(t)
						}
					}
				}
			}
		}
	}
}

// FuzzGRUSequence is the battery with the fuzzer choosing the case.
func FuzzGRUSequence(f *testing.F) {
	f.Add(int64(1), uint8(ReLU), uint8(31), uint8(19), uint8(31), true, true, uint8(0))
	f.Add(int64(2), uint8(Tanh), uint8(2), uint8(4), uint8(6), false, true, uint8(1))
	f.Add(int64(3), uint8(Sigmoid), uint8(16), uint8(1), uint8(1), true, false, uint8(2))
	f.Add(int64(4), uint8(Linear), uint8(0), uint8(7), uint8(3), false, false, uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, act, hidden, steps, n uint8, all, paramWindow bool, special uint8) {
		gruCase{
			act:    Activation(act % 4),
			hidden: int(hidden)%33 + 1, steps: int(steps)%24 + 1, n: int(n)%33 + 1,
			all: all, paramWindow: paramWindow, special: int(special % 3), seed: seed,
		}.check(t)
	})
}
