package nn

import (
	"math"
	"math/rand"
	"testing"

	"env2vec/internal/autodiff"
	"env2vec/internal/tensor"
)

func TestAttentionWeightsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewAttention("a", 4, 4, rng)
	states := []*tensor.Matrix{}
	for i := 0; i < 3; i++ {
		m := tensor.New(5, 4)
		m.RandNormal(rng, 1)
		states = append(states, m)
	}
	ws := a.Weights(states)
	if len(ws) != 3 {
		t.Fatalf("expected one weight matrix per step")
	}
	for row := 0; row < 5; row++ {
		sum := 0.0
		for _, w := range ws {
			v := w.At(row, 0)
			if v < 0 || v > 1 {
				t.Fatalf("weight out of [0,1]: %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d weights sum to %v", row, sum)
		}
	}
}

func TestAttentionForwardIsConvexMixture(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewAttention("a", 3, 3, rng)
	tape := autodiff.NewTape()
	s1 := tensor.FromRows([][]float64{{1, 1, 1}})
	s2 := tensor.FromRows([][]float64{{3, 3, 3}})
	out := a.Forward(tape, []*autodiff.Node{tape.Constant(s1), tape.Constant(s2)})
	for _, v := range out.Value.Data {
		if v < 1-1e-9 || v > 3+1e-9 {
			t.Fatalf("mixture must stay within the state hull: %v", v)
		}
	}
}

func TestAttentionSingleStateIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewAttention("a", 3, 2, rng)
	tape := autodiff.NewTape()
	s := tensor.FromRows([][]float64{{0.5, -1, 2}, {1, 2, 3}})
	out := a.Forward(tape, []*autodiff.Node{tape.Constant(s)})
	if !tensor.Equal(out.Value, s, 1e-12) {
		t.Fatalf("single-state attention must return the state")
	}
}

func TestAttentionForwardEmptyPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := NewAttention("a", 3, 2, rng)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	a.Forward(autodiff.NewTape(), nil)
}

func TestAttentionTrainsToFocusOnInformativeStep(t *testing.T) {
	// Target depends only on the FIRST window value; the GRU's final state
	// mostly reflects the LAST. Attention should outperform plain GRU.
	rng := rand.New(rand.NewSource(5))
	n := 300
	window := tensor.New(n, 4)
	y := tensor.New(n, 1)
	for i := 0; i < n; i++ {
		for j := 0; j < 4; j++ {
			window.Set(i, j, rng.NormFloat64())
		}
		y.Set(i, 0, window.At(i, 0))
	}

	train := func(useAttn bool) float64 {
		gr := rand.New(rand.NewSource(7))
		g := NewGRU("g", 8, gr)
		var attn *Attention
		if useAttn {
			attn = NewAttention("attn", 8, 8, gr)
		}
		out := NewDense("out", 8, 1, Linear, gr)
		params := append(g.Params(), out.Params()...)
		if attn != nil {
			params = append(params, attn.Params()...)
		}
		forward := func(tp *autodiff.Tape) *autodiff.Node {
			var h *autodiff.Node
			if attn != nil {
				h = attn.Forward(tp, g.ForwardWindowAll(tp, tp.Constant(window)))
			} else {
				h = g.ForwardWindow(tp, tp.Constant(window))
			}
			return out.Forward(tp, h)
		}
		opt := NewAdam(0.02)
		for epoch := 0; epoch < 120; epoch++ {
			tp := autodiff.NewTape()
			loss := tp.MSE(forward(tp), y)
			tp.Backward(loss)
			opt.Step(params)
		}
		tp := autodiff.NewTape()
		return tp.MSE(forward(tp), y).Value.Data[0]
	}

	plain := train(false)
	attn := train(true)
	if attn >= plain {
		t.Fatalf("attention should beat final-state GRU on first-step signal: %v vs %v", attn, plain)
	}
}

func TestGRUForwardWindowAllConsistentWithFinal(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := NewGRU("g", 5, rng)
	window := tensor.New(3, 4)
	window.RandNormal(rng, 1)
	t1 := autodiff.NewTape()
	final := g.ForwardWindow(t1, t1.Constant(window))
	t2 := autodiff.NewTape()
	all := g.ForwardWindowAll(t2, t2.Constant(window))
	if len(all) != 4 {
		t.Fatalf("expected one state per step")
	}
	if !tensor.Equal(all[len(all)-1].Value, final.Value, 1e-12) {
		t.Fatalf("last state must match ForwardWindow")
	}
}

func TestGRUForwardWindowAllPanics(t *testing.T) {
	gs := NewGRU("g", 3, rand.New(rand.NewSource(7)))
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for empty window")
		}
	}()
	tp := autodiff.NewTape()
	gs.ForwardWindowAll(tp, tp.Constant(tensor.New(1, 0)))
}

func TestBroadcastColWidths(t *testing.T) {
	tape := autodiff.NewTape()
	col := tape.Constant(tensor.FromRows([][]float64{{2}, {3}}))
	for _, width := range []int{1, 2, 3, 5, 8} {
		out := broadcastCol(tape, col, width)
		if out.Value.Cols != width && width != 1 {
			// broadcastCol may overshoot only when width==1 (no-op).
			t.Fatalf("width %d: got %d cols", width, out.Value.Cols)
		}
		for i := 0; i < out.Value.Rows; i++ {
			for j := 0; j < out.Value.Cols; j++ {
				if out.Value.At(i, j) != col.Value.At(i, 0) {
					t.Fatalf("broadcast value wrong at %d,%d", i, j)
				}
			}
		}
	}
}
