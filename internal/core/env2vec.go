// Package core implements the Env2Vec deep-learning architecture — the
// paper's primary contribution (§3). A single generic model predicts VNF
// resource utilization from three input families:
//
//   - contextual features (workload + performance metrics), through a
//     one-hidden-layer FNN producing v_fs;
//   - the sliding window of recent resource-usage values, through a GRU
//     producing v_ts;
//   - environment metadata <Testbed, SUT, Testcase, Build>, through four
//     embedding lookup tables (dimension 10 each, with a learned <unk>
//     row) whose outputs concatenate into the environment embedding C.
//
// v_s = [v_ts, v_fs] passes through a dense layer to v_d (the same width
// as C), and the prediction is the sum of the Hadamard product:
// y′ = Σ (v_d ⊙ C)  (Equation 2). Training minimizes MSE with Adam,
// dropout, and early stopping, exactly as in Appendix A.1.
//
// Because C is composed per-feature, a previously unseen environment tuple
// can still be scored by recombining component embeddings learned from
// other environments — the §4.3 capability that per-chain models lack.
package core

import (
	"fmt"
	"math/rand"

	"env2vec/internal/autodiff"
	"env2vec/internal/envmeta"
	"env2vec/internal/infer"
	"env2vec/internal/nn"
	"env2vec/internal/tensor"
)

// Head selects how the dense features v_d and the environment embedding C
// combine into a prediction. §3.2 describes all three: the Hadamard sum of
// Equation 2 (the paper's choice), a bilinear form with an extra matrix R,
// and an MLP over the concatenation — the latter two "require more
// parameters to learn but yield similar results".
type Head int

// Prediction heads.
const (
	HeadHadamard Head = iota // y′ = Σ (v_d ⊙ C)            (Equation 2)
	HeadBilinear             // y′ = v_d · R · C
	HeadMLP                  // y′ = MLP([v_d, C])
)

// String implements fmt.Stringer.
func (h Head) String() string {
	switch h {
	case HeadHadamard:
		return "hadamard"
	case HeadBilinear:
		return "bilinear"
	case HeadMLP:
		return "mlp"
	}
	return fmt.Sprintf("Head(%d)", int(h))
}

// Config sizes the Env2Vec network.
type Config struct {
	In        int     // contextual-feature dimensionality
	Hidden    int     // FNN hidden units (v_fs width)
	GRUHidden int     // GRU state width (v_ts width)
	EmbedDim  int     // per-feature embedding dimension (paper: 10)
	Window    int     // RU-history length n
	Dropout   float64 // dropout rate on the FNN hidden layer
	UnkProb   float64 // train-time probability of replacing an env id with <unk>
	Seed      int64
	// Head selects the prediction head; the zero value is the paper's
	// Hadamard sum (Equation 2).
	Head Head
	// Attention enables the §6 future-work extension: an additive
	// attention mixture over all GRU hidden states instead of the final
	// state only.
	Attention bool
}

// DefaultConfig mirrors the paper's architecture choices for a feature
// dimensionality of in.
func DefaultConfig(in int) Config {
	return Config{
		In:        in,
		Hidden:    64,
		GRUHidden: 32,
		EmbedDim:  10,
		Window:    4,
		Dropout:   0.1,
		UnkProb:   0.02,
		Seed:      1,
	}
}

// Model is the assembled Env2Vec network. It implements nn.Model.
type Model struct {
	cfg        Config
	fnn        *nn.MLP
	gru        *nn.GRU
	dense      *nn.Dense
	embeddings [envmeta.NumFeatures]*nn.Embedding

	attention *nn.Attention // non-nil when cfg.Attention
	bilinear  *nn.Param     // R matrix when cfg.Head == HeadBilinear
	headMLP   *nn.MLP       // when cfg.Head == HeadMLP

	// pred is the tape-free fused forward path used by Predict. It reads
	// the live layer weights on every call, so it needs no refresh after
	// optimizer steps or snapshot restores.
	pred *infer.Predictor[float64]
}

// New builds the model. Vocabulary sizes are taken from the schema, which
// must already have observed the training environments.
func New(cfg Config, schema *envmeta.Schema) *Model {
	if cfg.In <= 0 || cfg.Hidden <= 0 || cfg.GRUHidden <= 0 || cfg.EmbedDim <= 0 || cfg.Window <= 0 {
		panic(fmt.Sprintf("core: invalid config %+v", cfg))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{
		cfg: cfg,
		fnn: nn.NewMLP("env2vec.fnn", cfg.In, cfg.Hidden, nn.Sigmoid, cfg.Dropout, rng),
		gru: nn.NewGRU("env2vec.gru", cfg.GRUHidden, rng),
	}
	cdim := envmeta.NumFeatures * cfg.EmbedDim
	m.dense = nn.NewDense("env2vec.dense", cfg.Hidden+cfg.GRUHidden, cdim, nn.ReLU, rng)
	sizes := schema.Sizes()
	for k := 0; k < envmeta.NumFeatures; k++ {
		name := "env2vec.embed." + envmeta.FeatureNames()[k]
		m.embeddings[k] = nn.NewEmbedding(name, sizes[k], cfg.EmbedDim, rng)
	}
	if cfg.Attention {
		m.attention = nn.NewAttention("env2vec.attn", cfg.GRUHidden, cfg.GRUHidden, rng)
	}
	switch cfg.Head {
	case HeadHadamard:
	case HeadBilinear:
		m.bilinear = nn.NewParam("env2vec.head.R", cdim, cdim)
		// Initialize near the identity so the bilinear head starts as the
		// Hadamard head and learns the interaction structure from there.
		for i := 0; i < cdim; i++ {
			m.bilinear.Value.Set(i, i, 1)
		}
		noise := tensor.New(cdim, cdim)
		noise.RandUniform(rng, 0.01)
		m.bilinear.Value.AddInPlace(noise)
	case HeadMLP:
		m.headMLP = nn.NewMLP("env2vec.head", 2*cdim, cdim, nn.ReLU, 0, rng)
	default:
		panic(fmt.Sprintf("core: unknown prediction head %d", int(cfg.Head)))
	}
	m.pred = infer.NewPredictor(m.network())
	return m
}

// network maps the model's layers into the tape-free inference path's view
// of the architecture.
func (m *Model) network() infer.Network {
	net := infer.Network{
		FNNHidden:  m.fnn.Hidden,
		GRU:        m.gru,
		Dense:      m.dense,
		Embeddings: m.embeddings[:],
		Attention:  m.attention,
	}
	switch m.cfg.Head {
	case HeadBilinear:
		net.Head = infer.HeadBilinear
		net.Bilinear = m.bilinear.Value
	case HeadMLP:
		net.Head = infer.HeadMLP
		net.HeadMLP = m.headMLP
	default:
		net.Head = infer.HeadHadamard
	}
	return net
}

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// forward builds the prediction graph for a batch.
func (m *Model) forward(t *autodiff.Tape, b *nn.Batch, train bool, rng *rand.Rand) *autodiff.Node {
	vd, c := m.headInputs(t, b, train, rng)
	switch m.cfg.Head {
	case HeadBilinear:
		// y′ = v_d · R · C per example: (v_d R) ⊙ C summed per row.
		return t.SumRows(t.Mul(t.MatMul(vd, m.bilinear.Bind(t)), c))
	case HeadMLP:
		return m.headMLP.Forward(t, t.ConcatCols(vd, c), train, rng)
	default:
		// y′ = Σ (v_d ⊙ C), one scalar per row (Equation 2).
		return t.SumRows(t.Mul(vd, c))
	}
}

// headInputs builds what every head combines: the dense features v_d and
// the environment embedding C.
func (m *Model) headInputs(t *autodiff.Tape, b *nn.Batch, train bool, rng *rand.Rand) (vd, c *autodiff.Node) {
	if b.Window == nil {
		panic("core: Env2Vec requires an RU-history window in the batch")
	}
	if b.EnvIDs == nil || len(b.EnvIDs) != envmeta.NumFeatures {
		panic("core: Env2Vec requires environment ids in the batch")
	}
	vfs := m.fnn.HiddenForward(t, t.Constant(b.X), train, rng)
	var vts *autodiff.Node
	if m.attention != nil {
		states := m.gru.ForwardWindowAll(t, t.Constant(b.Window))
		vts = m.attention.Forward(t, states)
	} else {
		vts = m.gru.ForwardWindow(t, t.Constant(b.Window))
	}
	vs := t.ConcatCols(vts, vfs)
	vd = m.dense.Forward(t, vs)

	// Concatenated environment embedding C = [ec¹ … ec⁴] (Equation 1).
	for k, emb := range m.embeddings {
		ids := b.EnvIDs[k]
		if train && m.cfg.UnkProb > 0 && rng != nil {
			ids = m.maskIDs(ids, rng)
		}
		e := emb.Forward(t, ids)
		if c == nil {
			c = e
		} else {
			c = t.ConcatCols(c, e)
		}
	}
	return vd, c
}

// maskIDs randomly replaces ids with <unk> so the unknown embedding is
// trained — the NLP trick that makes genuinely unseen metadata values fall
// back to a learned vector rather than noise.
func (m *Model) maskIDs(ids []int, rng *rand.Rand) []int {
	out := make([]int, len(ids))
	copy(out, ids)
	for i := range out {
		if rng.Float64() < m.cfg.UnkProb {
			out[i] = nn.UnknownIndex
		}
	}
	return out
}

// Loss implements nn.Model.
func (m *Model) Loss(t *autodiff.Tape, b *nn.Batch, train bool, rng *rand.Rand) *autodiff.Node {
	return t.MSE(m.forward(t, b, train, rng), b.Y)
}

// Predict implements nn.Model. It runs the tape-free fused forward path
// (internal/infer), which reads the layer weights on every call and recycles
// its scratch space, so one trained model may be shared by any number of
// concurrently predicting goroutines — the online serving path batches many
// requests into a single call here. PredictTape keeps the graph-based path
// available as the reference implementation; the two agree to float64
// round-off (≤ 1e-12 relative, see the parity tests).
func (m *Model) Predict(b *nn.Batch) []float64 {
	if b.EnvIDs == nil {
		panic("core: Env2Vec requires environment ids in the batch")
	}
	return m.pred.Predict(b)
}

// PredictInto is Predict's zero-allocation form: it writes one prediction
// per batch row into out, which must be exactly batch-sized. Callers that
// recycle their result storage (the serve worker's forward stage) use this
// to keep the steady state allocation-free.
func (m *Model) PredictInto(out []float64, b *nn.Batch) {
	if b.EnvIDs == nil {
		panic("core: Env2Vec requires environment ids in the batch")
	}
	m.pred.PredictInto(out, b)
}

// NewPredictor32 exports the model's current weights into a frozen float32
// predictor (see infer.NewPredictor32). The snapshot is taken once, at call
// time: later training steps or restores on this model are not reflected,
// so serving rebuilds it per published model version — which is exactly the
// immutable-bundle contract internal/serve already enforces. The returned
// predictor keeps the Predict/PredictInto float64 API; only the internal
// arithmetic and weight storage narrow to float32.
func (m *Model) NewPredictor32() *infer.Predictor[float32] {
	return infer.NewPredictor32(m.network())
}

// PredictTape is the original inference-tape forward pass, retained as the
// slow-but-obviously-correct reference for Predict: it reuses the exact
// graph construction training uses (minus recording), so parity tests can
// hold the fused path to it.
func (m *Model) PredictTape(b *nn.Batch) []float64 {
	t := autodiff.NewInferenceTape()
	defer t.Release()
	pred := m.forward(t, b, false, nil)
	out := make([]float64, pred.Value.Rows)
	copy(out, pred.Value.Data)
	return out
}

// Params implements nn.Model. Only the FNN's hidden layer participates —
// Env2Vec consumes v_fs directly, never the MLP's own regression head.
func (m *Model) Params() []*nn.Param {
	ps := nn.CollectParams(m.fnn.Hidden, m.gru, m.dense)
	for _, e := range m.embeddings {
		ps = append(ps, e.Params()...)
	}
	if m.attention != nil {
		ps = append(ps, m.attention.Params()...)
	}
	if m.bilinear != nil {
		ps = append(ps, m.bilinear)
	}
	if m.headMLP != nil {
		ps = append(ps, m.headMLP.Params()...)
	}
	return ps
}

// EmbeddingFor returns the concatenated environment embedding C for an
// environment, composing per-feature rows (falling back to <unk> rows for
// unseen values). ids must come from the same schema the model was built
// with.
func (m *Model) EmbeddingFor(ids [envmeta.NumFeatures]int) []float64 {
	out := make([]float64, 0, envmeta.NumFeatures*m.cfg.EmbedDim)
	for k, emb := range m.embeddings {
		id := ids[k]
		if id < 0 || id >= emb.Table.Value.Rows {
			id = nn.UnknownIndex
		}
		out = append(out, emb.Table.Value.Row(id)...)
	}
	return out
}

// EmbeddingMatrix stacks the concatenated embeddings of several encoded
// environments into a matrix (one row per environment); Figure 6 projects
// this matrix with PCA.
func (m *Model) EmbeddingMatrix(ids [][envmeta.NumFeatures]int) *tensor.Matrix {
	cdim := envmeta.NumFeatures * m.cfg.EmbedDim
	out := tensor.New(len(ids), cdim)
	for i, id := range ids {
		copy(out.Row(i), m.EmbeddingFor(id))
	}
	return out
}

// Snapshot captures the weights plus architecture metadata for serving.
func (m *Model) Snapshot() *nn.Snapshot {
	meta := map[string]string{
		"kind":   "env2vec",
		"config": fmt.Sprintf("%+v", m.cfg),
	}
	return nn.TakeSnapshot(m.Params(), meta)
}

// Restore loads weights from a snapshot produced by a structurally
// identical model.
func (m *Model) Restore(s *nn.Snapshot) error { return s.Restore(m.Params()) }

// SizeBytes returns the serialized model size (the paper reports <10 MB).
func (m *Model) SizeBytes() (int, error) {
	data, err := m.Snapshot().Bytes()
	if err != nil {
		return 0, err
	}
	return len(data), nil
}

// NumParameters returns the total scalar parameter count.
func (m *Model) NumParameters() int {
	n := 0
	for _, p := range m.Params() {
		n += len(p.Value.Data)
	}
	return n
}
