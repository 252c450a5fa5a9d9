package infer_test

import (
	"math/rand"
	"strings"
	"testing"

	"env2vec/internal/infer"
	"env2vec/internal/nn"
	"env2vec/internal/tensor"
)

// handNetwork wires a small valid Hadamard network from bare layers: GRU
// width 8, 6 contextual units, 4 tables of dimension 3.
func handNetwork() infer.Network {
	rng := rand.New(rand.NewSource(1))
	const H, hidden, dim, tables = 8, 6, 3, 4
	net := infer.Network{
		FNNHidden: nn.NewDense("fnn", 3, hidden, nn.ReLU, rng),
		GRU:       nn.NewGRU("gru", H, rng),
		Dense:     nn.NewDense("dense", H+hidden, tables*dim, nn.ReLU, rng),
	}
	for k := 0; k < tables; k++ {
		net.Embeddings = append(net.Embeddings, nn.NewEmbedding("emb", 5, dim, rng))
	}
	return net
}

// TestMisshapenNetworkPanicsAtConstruction: the batch-wide kernels take
// shapes on faith that per-row slicing used to bounds-check, so both
// constructors refuse — by name, before any pass runs — a network whose
// recurrent blocks are not H×H, whose input weights or biases are not 1×H,
// whose tables differ in width (the gather reads them all at the first one's),
// whose Hadamard head multiplies rows of different lengths (it would index
// past the embedding row or ignore its tail), or whose dense bias is not as
// wide as its layer.
func TestMisshapenNetworkPanicsAtConstruction(t *testing.T) {
	reshape := func(p *nn.Param, rows, cols int) { p.Value = tensor.New(rows, cols) }
	cases := []struct {
		name    string
		wants   string // in the panic message
		breakIt func(net *infer.Network)
	}{
		{"Uz not square", "gru.Uz", func(n *infer.Network) { reshape(n.GRU.Uz, 8, 7) }},
		{"Ur too tall", "gru.Ur", func(n *infer.Network) { reshape(n.GRU.Ur, 9, 8) }},
		{"Uh of another width", "gru.Uh", func(n *infer.Network) { reshape(n.GRU.Uh, 7, 7) }},
		{"Wz too wide", "gru.Wz", func(n *infer.Network) { reshape(n.GRU.Wz, 1, 9) }},
		{"Wr too narrow", "gru.Wr", func(n *infer.Network) { reshape(n.GRU.Wr, 1, 7) }},
		{"Wh with two input rows", "gru.Wh", func(n *infer.Network) { reshape(n.GRU.Wh, 2, 8) }},
		{"bz too narrow", "gru.bz", func(n *infer.Network) { reshape(n.GRU.Bz, 1, 7) }},
		{"br a column", "gru.br", func(n *infer.Network) { reshape(n.GRU.Br, 8, 1) }},
		{"bh too wide", "gru.bh", func(n *infer.Network) { reshape(n.GRU.Bh, 1, 16) }},
		{"Hidden disagrees with every matrix", "gru.", func(n *infer.Network) { n.GRU.Hidden = 16 }},
		{"tables differ in dimension", "emb.E", func(n *infer.Network) { reshape(n.Embeddings[2].Table, 6, 4) }},
		{"Hadamard dense narrower than the embedding row", "Hadamard", func(n *infer.Network) {
			reshape(n.Dense.W, 14, 11)
			reshape(n.Dense.B, 1, 11)
		}},
		{"Hadamard dense wider than the embedding row", "Hadamard", func(n *infer.Network) {
			reshape(n.Dense.W, 14, 13)
			reshape(n.Dense.B, 1, 13)
		}},
		{"dense bias wider than its layer", "dense.b", func(n *infer.Network) { reshape(n.Dense.B, 1, 13) }},
		{"hidden bias narrower than its layer", "fnn.b", func(n *infer.Network) { reshape(n.FNNHidden.B, 1, 5) }},
	}
	expectPanic := func(t *testing.T, wants string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			msg, _ := recover().(string)
			if !strings.Contains(msg, "infer: ") || !strings.Contains(msg, wants) {
				t.Fatalf("panic %q, want an infer: message naming %q", msg, wants)
			}
		}()
		f()
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			net := handNetwork()
			c.breakIt(&net)
			expectPanic(t, c.wants, func() { infer.NewPredictor(net) })
			expectPanic(t, c.wants, func() { infer.NewPredictor32(net) })
		})
	}

	// The network the cases start from is one both constructors take and
	// both predictors run.
	net := handNetwork()
	b := &nn.Batch{X: tensor.New(3, 3), Window: tensor.New(3, 5), EnvIDs: make([][]int, 4)}
	for k := range b.EnvIDs {
		b.EnvIDs[k] = []int{1, 2, 0}
	}
	b.Window.RandNormal(rand.New(rand.NewSource(2)), 1)
	p64, p32 := infer.NewPredictor(net).Predict(b), infer.NewPredictor32(net).Predict(b)
	for i := range p64 {
		if d := p64[i] - p32[i]; d > 1e-4 || d < -1e-4 || p64[i] != p64[i] {
			t.Fatalf("row %d: float64 %v, float32 %v", i, p64[i], p32[i])
		}
	}
}
