package nn

import (
	"math/rand"

	"env2vec/internal/autodiff"
	"env2vec/internal/tensor"
)

// Attention implements the additive-attention extension the paper proposes
// as future work (§6, citing Bahdanau et al.): instead of summarizing the
// RU-history window by the GRU's final hidden state, every step's hidden
// state h_t is scored
//
//	s_t = v · tanh(W·h_t + b)
//
// and the summary is the softmax-weighted mixture Σ softmax(s)_t · h_t,
// letting the model focus on the most relevant previous timesteps.
type Attention struct {
	W *Param // hidden×attn projection
	B *Param // 1×attn bias
	V *Param // attn×1 scoring vector
}

// NewAttention creates an attention module over hidden-dim states with an
// attn-dim scoring space.
func NewAttention(name string, hidden, attn int, rng *rand.Rand) *Attention {
	a := &Attention{
		W: NewParam(name+".W", hidden, attn),
		B: NewParam(name+".b", 1, attn),
		V: NewParam(name+".v", attn, 1),
	}
	a.W.Value.GlorotUniform(rng)
	a.V.Value.GlorotUniform(rng)
	return a
}

// Forward mixes the per-step hidden states (each batch×hidden) into a
// single batch×hidden summary.
func (a *Attention) Forward(t *autodiff.Tape, states []*autodiff.Node) *autodiff.Node {
	if len(states) == 0 {
		panic("nn: Attention.Forward requires at least one state")
	}
	w, b, v := a.W.Bind(t), a.B.Bind(t), a.V.Bind(t)
	// Unnormalized weights e_t = exp(s_t), accumulated for the softmax
	// denominator. Scores are O(1) at Glorot init, so the unstabilized
	// exponential is safe here.
	exps := make([]*autodiff.Node, len(states))
	var total *autodiff.Node
	for i, h := range states {
		score := t.MatMul(t.Tanh(t.AddRowBroadcast(t.MatMul(h, w), b)), v)
		exps[i] = t.Exp(score)
		if total == nil {
			total = exps[i]
		} else {
			total = t.Add(total, exps[i])
		}
	}
	inv := t.Reciprocal(total) // batch×1
	var out *autodiff.Node
	for i, h := range states {
		alpha := t.Mul(exps[i], inv)                               // batch×1
		weighted := t.Mul(h, broadcastCol(t, alpha, h.Value.Cols)) // batch×hidden
		if out == nil {
			out = weighted
		} else {
			out = t.Add(out, weighted)
		}
	}
	return out
}

// Weights returns the softmax attention weights per step for a window
// (inference-time introspection; no gradients).
func (a *Attention) Weights(states []*tensor.Matrix) []*tensor.Matrix {
	t := autodiff.NewTape()
	nodes := make([]*autodiff.Node, len(states))
	for i, s := range states {
		nodes[i] = t.Constant(s)
	}
	w, b, v := t.Constant(a.W.Value), t.Constant(a.B.Value), t.Constant(a.V.Value)
	exps := make([]*autodiff.Node, len(states))
	var total *autodiff.Node
	for i, h := range nodes {
		score := t.MatMul(t.Tanh(t.AddRowBroadcast(t.MatMul(h, w), b)), v)
		exps[i] = t.Exp(score)
		if total == nil {
			total = exps[i]
		} else {
			total = t.Add(total, exps[i])
		}
	}
	inv := t.Reciprocal(total)
	out := make([]*tensor.Matrix, len(states))
	for i := range states {
		out[i] = t.Mul(exps[i], inv).Value
	}
	return out
}

// Params implements Layer.
func (a *Attention) Params() []*Param { return []*Param{a.W, a.B, a.V} }

// broadcastCol replicates a batch×1 column node across cols columns so it
// can gate a batch×cols activation elementwise.
func broadcastCol(t *autodiff.Tape, col *autodiff.Node, cols int) *autodiff.Node {
	out := col
	for out.Value.Cols < cols {
		// Double by self-concatenation, then trim: O(log cols) graph nodes.
		need := cols - out.Value.Cols
		chunk := out
		if chunk.Value.Cols > need {
			chunk = t.SliceColsNode(chunk, 0, need)
		}
		out = t.ConcatCols(out, chunk)
	}
	return out
}
