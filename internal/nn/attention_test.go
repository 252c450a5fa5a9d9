package nn

import (
	"math"
	"math/rand"
	"testing"

	"env2vec/internal/autodiff"
	"env2vec/internal/tensor"
)

// TestAttentionWeightsSumToOne reads the softmax weights off Forward: a
// column that every state shares comes back unchanged (the weights of a row
// sum to one), and every other column stays within the states' range (none
// is negative).
func TestAttentionWeightsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewAttention("a", 4, 4, rng)
	tape := autodiff.NewTape()
	var raw []*tensor.Matrix
	var states []*autodiff.Node
	for i := 0; i < 3; i++ {
		m := tensor.New(5, 4)
		m.RandNormal(rng, 1)
		for row := 0; row < 5; row++ {
			m.Data[row*4] = 2.5
		}
		raw = append(raw, m)
		states = append(states, tape.Constant(m))
	}
	out := a.Forward(tape, states).Value
	for row := 0; row < 5; row++ {
		if v := out.At(row, 0); math.Abs(v-2.5) > 1e-9 {
			t.Fatalf("row %d: the shared column comes back as %v, so the weights sum to %v", row, v, v/2.5)
		}
		for c := 1; c < 4; c++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, m := range raw {
				lo, hi = math.Min(lo, m.At(row, c)), math.Max(hi, m.At(row, c))
			}
			if v := out.At(row, c); v < lo-1e-9 || v > hi+1e-9 {
				t.Fatalf("row %d col %d: %v outside the states' [%v, %v]", row, c, v, lo, hi)
			}
		}
	}
}

func TestAttentionForwardIsConvexMixture(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewAttention("a", 3, 3, rng)
	tape := autodiff.NewTape()
	s1 := &tensor.Matrix{Rows: 1, Cols: 3, Data: []float64{1, 1, 1}}
	s2 := &tensor.Matrix{Rows: 1, Cols: 3, Data: []float64{3, 3, 3}}
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
	s := &tensor.Matrix{Rows: 2, Cols: 3, Data: []float64{0.5, -1, 2, 1, 2, 3}}
	out := a.Forward(tape, []*autodiff.Node{tape.Constant(s)})
	if !equal(out.Value, s, 1e-12) {
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
	if !equal(all[len(all)-1].Value, final.Value, 1e-12) {
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
	col := tape.Constant(&tensor.Matrix{Rows: 2, Cols: 1, Data: []float64{2, 3}})
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
