// Package nn builds neural-network layers and training utilities on top of
// the autodiff engine. It provides the components Env2Vec is assembled from
// (Dense/FNN layers, GRUs, embedding lookup tables), the Adam optimizer, a
// mini-batch trainer with dropout and early stopping, and gob-based model
// snapshots for the model-serving substrate.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"env2vec/internal/autodiff"
	"env2vec/internal/tensor"
)

// Param is a named trainable matrix. Binding it to a tape makes it a leaf
// node whose gradient is populated by Tape.Backward; the most recent binding
// is retained so optimizers can read gradients after the backward pass.
type Param struct {
	Name  string
	Value *tensor.Matrix
	node  *autodiff.Node
}

// NewParam allocates a named parameter with the given shape.
func NewParam(name string, rows, cols int) *Param {
	return &Param{Name: name, Value: tensor.New(rows, cols)}
}

// Bind registers the parameter on the tape for the current forward pass and
// returns the graph node to use in layer math. On an inference tape the
// parameter enters as a read-only constant and the binding is NOT retained:
// nothing is written into the Param, so concurrent forward passes over a
// shared model are safe.
func (p *Param) Bind(t *autodiff.Tape) *autodiff.Node {
	n := t.Param(p.Value)
	if t.Inference() {
		return n
	}
	p.node = n
	return n
}

// Grad returns the gradient from the most recent bound backward pass, or
// nil if the parameter was never bound. The matrix belongs to the tape the
// parameter was bound on and is valid until that tape is Reset or Released:
// step the optimizer first (Train does).
func (p *Param) Grad() *tensor.Matrix {
	if p.node == nil {
		return nil
	}
	return p.node.Grad
}

// Activation identifies an elementwise nonlinearity.
type Activation int

// Supported activations.
const (
	Linear Activation = iota
	Sigmoid
	Tanh
	ReLU
)

// String implements fmt.Stringer.
func (a Activation) String() string {
	switch a {
	case Linear:
		return "linear"
	case Sigmoid:
		return "sigmoid"
	case Tanh:
		return "tanh"
	case ReLU:
		return "relu"
	}
	return fmt.Sprintf("Activation(%d)", int(a))
}

// Apply adds the activation to the graph.
func (a Activation) Apply(t *autodiff.Tape, x *autodiff.Node) *autodiff.Node {
	switch a {
	case Linear:
		return x
	case Sigmoid:
		return t.Sigmoid(x)
	case Tanh:
		return t.Tanh(x)
	case ReLU:
		return t.ReLU(x)
	}
	panic(fmt.Sprintf("nn: unknown activation %d", int(a)))
}

// Layer is anything owning trainable parameters.
type Layer interface {
	// Params returns the layer's trainable parameters.
	Params() []*Param
}

// Dense is a fully connected layer: act(x·W + b).
type Dense struct {
	W, B *Param
	Act  Activation
}

// NewDense creates a Dense layer with Glorot-initialized weights.
func NewDense(name string, in, out int, act Activation, rng *rand.Rand) *Dense {
	d := &Dense{
		W:   NewParam(name+".W", in, out),
		B:   NewParam(name+".b", 1, out),
		Act: act,
	}
	d.W.Value.GlorotUniform(rng)
	return d
}

// Forward applies the layer to a batch×in input node.
func (d *Dense) Forward(t *autodiff.Tape, x *autodiff.Node) *autodiff.Node {
	h := t.AddRowBroadcast(t.MatMul(x, d.W.Bind(t)), d.B.Bind(t))
	return d.Act.Apply(t, h)
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// Embedding is a lookup table mapping categorical ids to dense vectors. Row
// 0 is reserved for the <unk> value so previously unseen metadata labels
// still map to a learned fallback vector, as in the paper.
type Embedding struct {
	Table *Param
	Dim   int
}

// UnknownIndex is the reserved row for out-of-vocabulary values.
const UnknownIndex = 0

// NewEmbedding creates an embedding table with vocab+1 rows (row 0 = <unk>).
// Rows initialize at ±1/√dim: in the Hadamard prediction head the
// embedding multiplies the dense features, so a too-small initialization
// (the usual ±0.05 word-embedding convention) would shrink both the output
// scale and every gradient flowing through the product, starving the rest
// of the network early in training.
func NewEmbedding(name string, vocab, dim int, rng *rand.Rand) *Embedding {
	e := &Embedding{Table: NewParam(name+".E", vocab+1, dim), Dim: dim}
	e.Table.Value.RandUniform(rng, 1/math.Sqrt(float64(dim)))
	return e
}

// Forward looks up the embedding rows for ids (batch-sized).
func (e *Embedding) Forward(t *autodiff.Tape, ids []int) *autodiff.Node {
	clamped := make([]int, len(ids))
	for i, id := range ids {
		if id < 0 || id >= e.Table.Value.Rows {
			id = UnknownIndex
		}
		clamped[i] = id
	}
	return t.GatherRows(e.Table.Bind(t), clamped)
}

// Params implements Layer.
func (e *Embedding) Params() []*Param { return []*Param{e.Table} }

// CollectParams flattens the parameters of several layers.
func CollectParams(layers ...Layer) []*Param {
	var ps []*Param
	for _, l := range layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// DropoutMask returns a binary batch×cols mask with keep probability keep,
// or nil (no-op) when rate is zero.
func DropoutMask(rng *rand.Rand, rows, cols int, rate float64) *tensor.Matrix {
	if rate <= 0 {
		return nil
	}
	if rate >= 1 {
		panic(fmt.Sprintf("nn: dropout rate %v >= 1", rate))
	}
	m := tensor.New(rows, cols)
	for i := range m.Data {
		if rng.Float64() >= rate {
			m.Data[i] = 1
		}
	}
	return m
}
