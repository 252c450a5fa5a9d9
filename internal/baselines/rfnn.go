package baselines

import (
	"math/rand"

	"env2vec/internal/autodiff"
	"env2vec/internal/nn"
)

// RFNNConfig sizes the RFNN network.
type RFNNConfig struct {
	In        int     // contextual-feature dimensionality
	Hidden    int     // FNN hidden units (v_fs size)
	GRUHidden int     // GRU state size (v_ts size)
	DenseDim  int     // combined dense layer width (v_d size)
	Dropout   float64 // dropout on the FNN hidden layer
	Seed      int64
}

// RFNN is the recurrent+feed-forward variant of Env2Vec without environment
// embeddings (§4.1.3): a GRU summarizes the RU-history window into v_ts, an
// FNN summarizes contextual features into v_fs, and a dense layer over the
// concatenation regresses the next RU value. Trained per environment it is
// the paper's RFNN baseline; trained once on pooled data it is RFNN_all.
type RFNN struct {
	cfg   RFNNConfig
	fnn   *nn.MLP
	gru   *nn.GRU
	dense *nn.Dense
	out   *nn.Dense
}

// NewRFNN builds an RFNN with Glorot initialization from cfg.Seed.
func NewRFNN(cfg RFNNConfig) *RFNN {
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &RFNN{
		cfg: cfg,
		fnn: nn.NewMLP("rfnn.fnn", cfg.In, cfg.Hidden, nn.Sigmoid, cfg.Dropout, rng),
		gru: nn.NewGRU("rfnn.gru", cfg.GRUHidden, rng),
	}
	m.dense = nn.NewDense("rfnn.dense", cfg.Hidden+cfg.GRUHidden, cfg.DenseDim, nn.ReLU, rng)
	m.out = nn.NewDense("rfnn.out", cfg.DenseDim, 1, nn.Linear, rng)
	return m
}

// forward builds the prediction subgraph for the batch.
func (m *RFNN) forward(t *autodiff.Tape, b *nn.Batch, train bool, rng *rand.Rand) *autodiff.Node {
	if b.Window == nil {
		panic("baselines: RFNN requires an RU-history window")
	}
	vfs := m.fnn.HiddenForward(t, t.Constant(b.X), train, rng)
	vts := m.gru.ForwardWindow(t, t.Constant(b.Window))
	vs := t.ConcatCols(vts, vfs)
	vd := m.dense.Forward(t, vs)
	return m.out.Forward(t, vd)
}

// Loss implements nn.Model.
func (m *RFNN) Loss(t *autodiff.Tape, b *nn.Batch, train bool, rng *rand.Rand) *autodiff.Node {
	return t.MSE(m.forward(t, b, train, rng), b.Y)
}

// Predict implements nn.Model and Predictor; it runs on an inference tape
// and is safe for concurrent use.
func (m *RFNN) Predict(b *nn.Batch) []float64 {
	t := autodiff.NewInferenceTape()
	defer t.Release()
	pred := m.forward(t, b, false, nil)
	out := make([]float64, pred.Value.Rows)
	copy(out, pred.Value.Data)
	return out
}

// Params implements nn.Model.
func (m *RFNN) Params() []*nn.Param {
	return nn.CollectParams(m.fnn, m.gru, m.dense, m.out)
}
