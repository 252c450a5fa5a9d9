// Package autodiff implements reverse-mode automatic differentiation over
// dense matrices. It is the numerical core beneath the neural-network layers
// in internal/nn: every Env2Vec component (FNN, GRU, embeddings, Hadamard
// prediction head) is expressed as a composition of the operations defined
// here, and gradients are obtained by a single backward sweep over the tape.
//
// Usage pattern:
//
//	tape := autodiff.NewTape()
//	x := tape.Constant(input)
//	w := tape.Param(weights) // leaf whose gradient is accumulated
//	y := tape.Sigmoid(tape.MatMul(x, w))
//	loss := tape.MSE(y, target)
//	tape.Backward(loss)
//	// w.Grad now holds ∂loss/∂w
//
// One graph per tape at a time: build it, run Backward once, read the
// gradients. A tape owns the memory of its graph — nodes, values, gradients
// and backward temporaries (one tensor.Arena) — so a loop that calls Reset between
// steps, or Release when it is done, rebuilds graph after graph without
// allocating. A caller that does neither pays for a fresh arena per tape and
// is otherwise unaffected.
//
// A layer that is cheaper as one node than as many — nn.GRU runs its whole
// recurrence as one — builds it with two hooks: Op adds a node whose value
// the caller computes and whose backward closure the caller writes, and Mat
// hands out tape-owned scratch (kept until Reset, or, taken inside a backward
// closure, until that closure returns). Such a closure adds into the
// gradients of its inputs exactly as the operations here do, and only into
// those whose RequiresGrad holds.
package autodiff

import (
	"fmt"
	"math"
	"sync"

	"env2vec/internal/tensor"
)

// Node is a value in the computation graph together with the gradient of
// the final scalar output with respect to it. Both matrices belong to the
// tape (a leaf's Value belongs to the caller): they are valid until the tape
// is Reset or Released.
type Node struct {
	Value *tensor.Matrix
	Grad  *tensor.Matrix
	// back propagates out's Grad into its inputs. Nil for leaves.
	back func(out *Node)
	// requiresGrad marks nodes on a path from a parameter; constant
	// subtrees are skipped during the backward sweep.
	requiresGrad bool
	id           int
	// val and grad are the headers Value and Grad point at for everything
	// the tape computes, so a recycled node brings its own.
	val, grad tensor.Matrix
}

// Tape records operations in execution order so Backward can replay them in
// reverse. A tape is not safe for concurrent use; concurrent forward passes
// each take their own.
type Tape struct {
	// nodes is the graph in execution order. Reset truncates it and leaves
	// the old nodes in its backing array, where node() finds them again.
	nodes     []*Node
	mem       tensor.Arena[float64]
	inference bool
}

// tapePool recycles released tapes with their warm arenas, the way
// internal/infer recycles its per-pass arenas.
var tapePool = sync.Pool{New: func() any { return new(Tape) }}

// NewTape returns an empty tape.
func NewTape() *Tape {
	t := tapePool.Get().(*Tape)
	t.inference = false
	return t
}

// NewInferenceTape returns a forward-only tape: parameters enter the graph
// as read-only constants, no gradients are allocated, and no backward
// closures are kept. Because nothing is written back into shared state,
// many goroutines may run forward passes over the same parameters
// concurrently, each on its own tape — the property the online prediction
// service relies on.
func NewInferenceTape() *Tape {
	t := tapePool.Get().(*Tape)
	t.inference = true
	return t
}

// Inference reports whether the tape is forward-only.
func (t *Tape) Inference() bool { return t.inference }

// Reset empties the tape for the next graph and recycles everything the
// last one used. Every Node, Value and Grad the tape handed out — including
// what nn.Param.Grad returns for parameters bound on it — is dead from here
// on: read gradients, and step the optimizer, before resetting.
func (t *Tape) Reset() {
	for _, n := range t.nodes {
		*n = Node{} // drop the references a pooled tape would otherwise pin
	}
	t.nodes = t.nodes[:0]
	t.mem.Reset()
}

// Release resets the tape and hands it back for NewTape and
// NewInferenceTape to reuse. The caller must not touch the tape, or
// anything it returned, afterwards. Releasing is optional: a tape that is
// simply dropped is garbage like any other value.
func (t *Tape) Release() {
	t.Reset()
	tapePool.Put(t)
}

// Mat returns an uninitialized rows×cols matrix owned by the tape, for what a
// caller assembles per graph (a gathered mini-batch, a layer's packed
// weights). It is valid until the tape is Reset or Released; taken inside a
// backward closure, only until that closure returns.
func (t *Tape) Mat(rows, cols int) *tensor.Matrix { return t.mem.Mat(rows, cols) }

// Op adds a node the caller computes: a rows×cols value to overwrite in full
// (the storage is recycled, not cleared), a zeroed gradient when requiresGrad
// holds on a recording tape, and back, which Backward calls with the node
// once its gradient is complete, to add it into the gradients of the nodes
// the value came from.
func (t *Tape) Op(rows, cols int, requiresGrad bool, back func(out *Node)) *Node {
	return t.newNode(rows, cols, requiresGrad, back)
}

// RequiresGrad reports whether the node has a gradient, which a backward
// closure then adds into.
func (n *Node) RequiresGrad() bool { return n.requiresGrad }

// node appends a recycled (or new) node to the graph.
func (t *Tape) node() *Node {
	id := len(t.nodes)
	if id < cap(t.nodes) {
		t.nodes = t.nodes[:id+1]
	} else {
		t.nodes = append(t.nodes, nil)
	}
	n := t.nodes[id]
	if n == nil {
		n = new(Node)
		t.nodes[id] = n
	}
	n.id = id
	return n
}

// leaf adds a node whose value is the caller's matrix.
func (t *Tape) leaf(v *tensor.Matrix, requiresGrad bool) *Node {
	n := t.node()
	n.Value, n.back = v, nil
	t.initGrad(n, requiresGrad)
	return n
}

// newNode adds an operation's output: a rows×cols value the caller must
// overwrite in full (the storage is recycled, not cleared), a zeroed
// gradient if one is needed, and the closure that propagates it.
func (t *Tape) newNode(rows, cols int, requiresGrad bool, back func(out *Node)) *Node {
	return t.view(rows, cols, t.mem.Take(rows*cols), requiresGrad, back)
}

// view is newNode over storage the caller supplies.
func (t *Tape) view(rows, cols int, data []float64, requiresGrad bool, back func(out *Node)) *Node {
	n := t.node()
	n.val = tensor.Matrix{Rows: rows, Cols: cols, Data: data}
	n.Value, n.back = &n.val, back
	t.initGrad(n, requiresGrad)
	return n
}

func (t *Tape) initGrad(n *Node, requiresGrad bool) {
	n.requiresGrad = requiresGrad && !t.inference
	n.Grad = nil
	if !n.requiresGrad {
		n.back = nil
		return
	}
	g := t.mem.Take(len(n.Value.Data))
	clear(g)
	n.grad = tensor.Matrix{Rows: n.Value.Rows, Cols: n.Value.Cols, Data: g}
	n.Grad = &n.grad
}

// Constant adds a leaf that does not require gradients.
func (t *Tape) Constant(v *tensor.Matrix) *Node { return t.leaf(v, false) }

// Param adds a leaf parameter whose gradient is wanted. The matrix is used
// by reference, so the caller's storage is shared.
func (t *Tape) Param(v *tensor.Matrix) *Node { return t.leaf(v, true) }

// Backward runs the reverse sweep seeding ∂out/∂out = 1. The output must be
// a 1×1 scalar node produced by this tape.
func (t *Tape) Backward(out *Node) {
	if out.Value.Rows != 1 || out.Value.Cols != 1 {
		panic(fmt.Sprintf("autodiff: Backward requires scalar output, got %dx%d", out.Value.Rows, out.Value.Cols))
	}
	if !out.requiresGrad {
		return // nothing on the tape depends on a parameter
	}
	out.Grad.Data[0] = 1
	for i := out.id; i >= 0; i-- {
		n := t.nodes[i]
		if n.requiresGrad && n.back != nil {
			m := t.mem.Mark()
			n.back(n)
			t.mem.Release(m) // a closure's temporaries die with it
		}
	}
}

// MatMul returns a×b. The forward product runs through
// tensor.MatMulBlockedInto — the one float64 kernel the fused scorer also
// uses — and both backward products through its store mode, which adds each
// finished sum into the gradient: tensor.MatMulAddInto for ∂a with bᵀ packed
// into a temporary, tensor.MatMulTAddInto for ∂b, which reads aᵀ in place.
func (t *Tape) MatMul(a, b *Node) *Node {
	out := t.newNode(a.Value.Rows, b.Value.Cols, a.requiresGrad || b.requiresGrad, func(out *Node) {
		if a.requiresGrad { // ∂a += ∂out · bᵀ
			bt := t.Mat(b.Value.Cols, b.Value.Rows)
			b.Value.TransposeInto(bt)
			tensor.MatMulAddInto(a.Grad, out.Grad, bt)
		}
		if b.requiresGrad { // ∂b += aᵀ · ∂out
			tensor.MatMulTAddInto(b.Grad, a.Value, out.Grad)
		}
	})
	tensor.MatMulBlockedInto(out.Value, a.Value, b.Value)
	return out
}

// Add returns a+b elementwise.
func (t *Tape) Add(a, b *Node) *Node {
	out := t.newNode(a.Value.Rows, a.Value.Cols, a.requiresGrad || b.requiresGrad, func(out *Node) {
		if a.requiresGrad {
			a.Grad.AddInPlace(out.Grad)
		}
		if b.requiresGrad {
			b.Grad.AddInPlace(out.Grad)
		}
	})
	tensor.AddInto(out.Value, a.Value, b.Value)
	return out
}

// Sub returns a−b elementwise.
func (t *Tape) Sub(a, b *Node) *Node {
	out := t.newNode(a.Value.Rows, a.Value.Cols, a.requiresGrad || b.requiresGrad, func(out *Node) {
		if a.requiresGrad {
			a.Grad.AddInPlace(out.Grad)
		}
		if b.requiresGrad {
			for i, g := range out.Grad.Data {
				b.Grad.Data[i] -= g
			}
		}
	})
	tensor.SubInto(out.Value, a.Value, b.Value)
	return out
}

// Mul returns the Hadamard product a⊙b.
func (t *Tape) Mul(a, b *Node) *Node {
	out := t.newNode(a.Value.Rows, a.Value.Cols, a.requiresGrad || b.requiresGrad, func(out *Node) {
		if a.requiresGrad {
			for i, g := range out.Grad.Data {
				a.Grad.Data[i] += g * b.Value.Data[i]
			}
		}
		if b.requiresGrad {
			for i, g := range out.Grad.Data {
				b.Grad.Data[i] += g * a.Value.Data[i]
			}
		}
	})
	tensor.MulInto(out.Value, a.Value, b.Value)
	return out
}

// Scale returns s·a for a constant scalar s.
func (t *Tape) Scale(a *Node, s float64) *Node {
	out := t.newNode(a.Value.Rows, a.Value.Cols, a.requiresGrad, func(out *Node) {
		for i, g := range out.Grad.Data {
			a.Grad.Data[i] += g * s
		}
	})
	tensor.ScaleInto(out.Value, a.Value, s)
	return out
}

// AddRowBroadcast adds a 1×c bias row b to every row of a (a is r×c).
func (t *Tape) AddRowBroadcast(a, b *Node) *Node {
	out := t.newNode(a.Value.Rows, a.Value.Cols, a.requiresGrad || b.requiresGrad, func(out *Node) {
		if a.requiresGrad {
			a.Grad.AddInPlace(out.Grad)
		}
		if b.requiresGrad {
			for i := 0; i < out.Grad.Rows; i++ {
				for j, g := range out.Grad.Row(i) {
					b.Grad.Data[j] += g
				}
			}
		}
	})
	tensor.AddRowBroadcastInto(out.Value, a.Value, b.Value)
	return out
}

// apply adds an elementwise operation whose value is f of the input's.
func (t *Tape) apply(a *Node, f func(float64) float64, back func(out *Node)) *Node {
	out := t.newNode(a.Value.Rows, a.Value.Cols, a.requiresGrad, back)
	tensor.ApplyInto(out.Value, a.Value, f)
	return out
}

// Sigmoid applies the logistic function elementwise, through tensor.Sigmoid:
// the float64 predictor's gate kernel, so the two share their bits.
func (t *Tape) Sigmoid(a *Node) *Node {
	out := t.newNode(a.Value.Rows, a.Value.Cols, a.requiresGrad, func(out *Node) {
		for i, s := range out.Value.Data {
			a.Grad.Data[i] += out.Grad.Data[i] * s * (1 - s)
		}
	})
	tensor.Sigmoid(out.Value.Data, a.Value.Data)
	return out
}

// Tanh applies tanh elementwise.
func (t *Tape) Tanh(a *Node) *Node {
	return t.apply(a, math.Tanh, func(out *Node) {
		for i, th := range out.Value.Data {
			a.Grad.Data[i] += out.Grad.Data[i] * (1 - th*th)
		}
	})
}

// ReLU applies max(0,x) elementwise through tensor.ReLU, the GRU node's
// candidate activation: x < 0 becomes +0, and a NaN stays a NaN, as it does
// in the fused paths — the comparison cannot turn a diverged activation into
// a clean zero.
func (t *Tape) ReLU(a *Node) *Node {
	out := t.newNode(a.Value.Rows, a.Value.Cols, a.requiresGrad, func(out *Node) {
		for i, x := range a.Value.Data {
			if x > 0 {
				a.Grad.Data[i] += out.Grad.Data[i]
			}
		}
	})
	tensor.ReLU(out.Value.Data, a.Value.Data)
	return out
}

// Exp applies e^x elementwise.
func (t *Tape) Exp(a *Node) *Node {
	return t.apply(a, math.Exp, func(out *Node) {
		for i, e := range out.Value.Data {
			a.Grad.Data[i] += out.Grad.Data[i] * e
		}
	})
}

// Reciprocal applies 1/x elementwise; the caller must keep inputs away
// from zero (softmax denominators are strictly positive).
func (t *Tape) Reciprocal(a *Node) *Node {
	return t.apply(a, func(x float64) float64 { return 1 / x }, func(out *Node) {
		for i, r := range out.Value.Data {
			a.Grad.Data[i] -= out.Grad.Data[i] * r * r
		}
	})
}

// ConcatCols returns [a | b].
func (t *Tape) ConcatCols(a, b *Node) *Node {
	ac := a.Value.Cols
	out := t.newNode(a.Value.Rows, ac+b.Value.Cols, a.requiresGrad || b.requiresGrad, func(out *Node) {
		for i := 0; i < out.Grad.Rows; i++ {
			grow := out.Grad.Row(i)
			if a.requiresGrad {
				arow := a.Grad.Row(i)
				for j, g := range grow[:ac] {
					arow[j] += g
				}
			}
			if b.requiresGrad {
				brow := b.Grad.Row(i)
				for j, g := range grow[ac:] {
					brow[j] += g
				}
			}
		}
	})
	tensor.ConcatColsInto(out.Value, a.Value, b.Value)
	return out
}

// SliceColsNode extracts columns [from,to) with gradients scattered back
// into the sliced range.
func (t *Tape) SliceColsNode(a *Node, from, to int) *Node {
	out := t.newNode(a.Value.Rows, to-from, a.requiresGrad, func(out *Node) {
		for i := 0; i < out.Grad.Rows; i++ {
			arow := a.Grad.Row(i)
			for j, g := range out.Grad.Row(i) {
				arow[from+j] += g
			}
		}
	})
	a.Value.SliceColsInto(out.Value, from, to)
	return out
}

// SliceRowsNode is rows [from,to) of a. The value shares a's storage — a
// node's value is final once the operation that made it returns — and the
// gradient is added back into those rows.
func (t *Tape) SliceRowsNode(a *Node, from, to int) *Node {
	if from < 0 || to > a.Value.Rows || from > to {
		panic(fmt.Sprintf("autodiff: SliceRowsNode [%d,%d) of %d rows", from, to, a.Value.Rows))
	}
	cols := a.Value.Cols
	return t.view(to-from, cols, a.Value.Data[from*cols:to*cols:to*cols], a.requiresGrad, func(out *Node) {
		rows := a.Grad.Data[from*cols : to*cols]
		for i, g := range out.Grad.Data {
			rows[i] += g
		}
	})
}

// GatherRows selects rows idx[i] of the table node; used for embedding
// lookups. The gradient scatters back into the selected rows.
func (t *Tape) GatherRows(table *Node, idx []int) *Node {
	out := t.newNode(len(idx), table.Value.Cols, table.requiresGrad, func(out *Node) {
		for i, r := range idx {
			trow := table.Grad.Row(r)
			for j, g := range out.Grad.Row(i) {
				trow[j] += g
			}
		}
	})
	tensor.GatherRowsInto(out.Value, table.Value, idx)
	return out
}

// SumRows reduces each row of a to a single value, producing r×1.
func (t *Tape) SumRows(a *Node) *Node {
	out := t.newNode(a.Value.Rows, 1, a.requiresGrad, func(out *Node) {
		for i, g := range out.Grad.Data {
			row := a.Grad.Row(i)
			for j := range row {
				row[j] += g
			}
		}
	})
	for i := range out.Value.Data {
		s := 0.0
		for _, x := range a.Value.Row(i) {
			s += x
		}
		out.Value.Data[i] = s
	}
	return out
}

// Sum reduces all elements of a to a 1×1 scalar.
func (t *Tape) Sum(a *Node) *Node {
	out := t.newNode(1, 1, a.requiresGrad, func(out *Node) {
		g := out.Grad.Data[0]
		for i := range a.Grad.Data {
			a.Grad.Data[i] += g
		}
	})
	out.Value.Data[0] = a.Value.Sum()
	return out
}

// Mean reduces all elements of a to their mean as a 1×1 scalar.
func (t *Tape) Mean(a *Node) *Node {
	n := float64(len(a.Value.Data))
	return t.Scale(t.Sum(a), 1/n)
}

// MSE returns the scalar mean squared error between pred and the constant
// target matrix.
func (t *Tape) MSE(pred *Node, target *tensor.Matrix) *Node {
	diff := t.Sub(pred, t.Constant(target))
	return t.Mean(t.Mul(diff, diff))
}

// Dropout zeroes elements of a according to the supplied binary mask and
// rescales survivors by 1/keep ("inverted dropout"). The mask is supplied by
// the caller so that training code controls randomness; pass nil to make
// this a no-op (inference).
func (t *Tape) Dropout(a *Node, mask *tensor.Matrix, keep float64) *Node {
	if mask == nil {
		return a
	}
	if keep <= 0 || keep > 1 {
		panic(fmt.Sprintf("autodiff: Dropout keep=%v out of (0,1]", keep))
	}
	return t.Mul(a, t.Scale(t.Constant(mask), 1/keep))
}
