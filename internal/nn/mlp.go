package nn

import (
	"math/rand"

	"env2vec/internal/autodiff"
)

// MLP is a one-hidden-layer feed-forward regressor with dropout on the
// hidden activations. It is both the FNN baseline from the paper (§4.1.3)
// and the contextual-feature tower reused inside RFNN and Env2Vec.
type MLP struct {
	Hidden  *Dense
	Out     *Dense
	Dropout float64
}

// NewMLP builds an MLP with in inputs, hidden units, and a linear scalar
// output head.
func NewMLP(name string, in, hidden int, act Activation, dropout float64, rng *rand.Rand) *MLP {
	return &MLP{
		Hidden:  NewDense(name+".hidden", in, hidden, act, rng),
		Out:     NewDense(name+".out", hidden, 1, Linear, rng),
		Dropout: dropout,
	}
}

// HiddenForward runs only the hidden layer (plus dropout when training),
// returning the batch×hidden representation v_fs.
func (m *MLP) HiddenForward(t *autodiff.Tape, x *autodiff.Node, train bool, rng *rand.Rand) *autodiff.Node {
	h := m.Hidden.Forward(t, x)
	if train && m.Dropout > 0 {
		mask := DropoutMask(rng, h.Value.Rows, h.Value.Cols, m.Dropout)
		h = t.Dropout(h, mask, 1-m.Dropout)
	}
	return h
}

// Forward runs the full network to a batch×1 prediction node.
func (m *MLP) Forward(t *autodiff.Tape, x *autodiff.Node, train bool, rng *rand.Rand) *autodiff.Node {
	return m.Out.Forward(t, m.HiddenForward(t, x, train, rng))
}

// Loss implements Model.
func (m *MLP) Loss(t *autodiff.Tape, b *Batch, train bool, rng *rand.Rand) *autodiff.Node {
	pred := m.Forward(t, t.Constant(b.X), train, rng)
	return t.MSE(pred, b.Y)
}

// Predict implements Model. It runs on an inference tape, so it is safe to
// call concurrently from multiple goroutines.
func (m *MLP) Predict(b *Batch) []float64 {
	t := autodiff.NewInferenceTape()
	defer t.Release()
	pred := m.Forward(t, t.Constant(b.X), false, nil)
	out := make([]float64, pred.Value.Rows)
	copy(out, pred.Value.Data)
	return out
}

// Params implements Model.
func (m *MLP) Params() []*Param { return CollectParams(m.Hidden, m.Out) }
