package core

import (
	"math"
	"math/rand"
	"testing"

	"env2vec/internal/envmeta"
	"env2vec/internal/nn"
	"env2vec/internal/tensor"
)

// twoEnvBatch builds data where the SAME contextual features map to
// DIFFERENT targets depending on the environment: env A adds +offset, env B
// subtracts it. Only a model that conditions on the environment can fit it.
func twoEnvBatch(rng *rand.Rand, schema *envmeta.Schema, n int, offset float64) *nn.Batch {
	envA := envmeta.Environment{Testbed: "tbA", SUT: "db", Testcase: "load", Build: "S01"}
	envB := envmeta.Environment{Testbed: "tbB", SUT: "db", Testcase: "load", Build: "D01"}
	idsA := schema.Observe(envA)
	idsB := schema.Observe(envB)
	b := &nn.Batch{
		X:      tensor.New(n, 2),
		Window: tensor.New(n, 2),
		Y:      tensor.New(n, 1),
		EnvIDs: make([][]int, envmeta.NumFeatures),
	}
	for k := range b.EnvIDs {
		b.EnvIDs[k] = make([]int, n)
	}
	for i := 0; i < n; i++ {
		x0, x1 := rng.NormFloat64(), rng.NormFloat64()
		b.X.Set(i, 0, x0)
		b.X.Set(i, 1, x1)
		b.Window.Set(i, 0, rng.NormFloat64()*0.1)
		b.Window.Set(i, 1, rng.NormFloat64()*0.1)
		base := 0.8*x0 - 0.4*x1
		ids := idsA
		sign := 1.0
		if i%2 == 1 {
			ids = idsB
			sign = -1
		}
		b.Y.Set(i, 0, base+sign*offset)
		for k := range b.EnvIDs {
			b.EnvIDs[k][i] = ids[k]
		}
	}
	return b
}

func smallConfig() Config {
	return Config{In: 2, Hidden: 12, GRUHidden: 6, EmbedDim: 4, Window: 2, Seed: 1, UnkProb: 0.02}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	schema := envmeta.NewSchema()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	New(Config{}, schema)
}

func TestForwardRequiresWindowAndEnvIDs(t *testing.T) {
	schema := envmeta.NewSchema()
	m := New(smallConfig(), schema)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("missing window should panic")
			}
		}()
		m.Predict(&nn.Batch{X: tensor.New(1, 2), Y: tensor.New(1, 1)})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("missing env ids should panic")
			}
		}()
		m.Predict(&nn.Batch{X: tensor.New(1, 2), Window: tensor.New(1, 2), Y: tensor.New(1, 1)})
	}()
}

func TestLearnsEnvironmentDependentResponse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	schema := envmeta.NewSchema()
	train := twoEnvBatch(rng, schema, 400, 2.0)
	m := New(smallConfig(), schema)
	nn.Train(m, nn.NewAdam(0.01), train, nil, nn.TrainConfig{Epochs: 80, BatchSize: 32, Seed: 1})
	mse := nn.EvalMSE(m, train)
	if mse > 0.25 {
		t.Fatalf("Env2Vec failed to learn env-dependent response: mse=%v", mse)
	}
	// The environment must drive the difference: same features, different
	// env ids → predictions ~4 apart.
	probe := &nn.Batch{
		X:      tensor.New(2, train.X.Cols),
		Window: tensor.New(2, train.Window.Cols),
		Y:      tensor.New(2, 1),
		EnvIDs: make([][]int, len(train.EnvIDs)),
	}
	tensor.GatherRowsInto(probe.X, train.X, []int{0, 0})
	tensor.GatherRowsInto(probe.Window, train.Window, []int{0, 0})
	for k, ids := range train.EnvIDs {
		probe.EnvIDs[k] = ids[:2]
	}
	preds := m.Predict(probe)
	if diff := preds[0] - preds[1]; math.Abs(diff-4) > 1.2 {
		t.Fatalf("environment offset not learned: diff=%v (want ≈4)", diff)
	}
}

func TestEmbeddingBeatsNoEmbeddingOnMixedEnvs(t *testing.T) {
	// RFNN_all-style ablation inside core: zeroing the environment signal
	// (all ids = <unk>) must hurt on environment-dependent data.
	rng := rand.New(rand.NewSource(2))
	schema := envmeta.NewSchema()
	train := twoEnvBatch(rng, schema, 400, 2.0)
	m := New(smallConfig(), schema)
	nn.Train(m, nn.NewAdam(0.01), train, nil, nn.TrainConfig{Epochs: 80, BatchSize: 32, Seed: 1})
	withEnv := nn.EvalMSE(m, train)

	blind := &nn.Batch{X: train.X, Window: train.Window, Y: train.Y, EnvIDs: make([][]int, envmeta.NumFeatures)}
	for k := range blind.EnvIDs {
		blind.EnvIDs[k] = make([]int, train.Len()) // all UnknownIndex
	}
	withoutEnv := nn.EvalMSE(m, blind)
	if withoutEnv <= withEnv {
		t.Fatalf("removing env ids should hurt: with=%v without=%v", withEnv, withoutEnv)
	}
}

func TestEmbeddingForComposition(t *testing.T) {
	schema := envmeta.NewSchema()
	e1 := envmeta.Environment{Testbed: "tb1", SUT: "db", Testcase: "load", Build: "S01"}
	e2 := envmeta.Environment{Testbed: "tb2", SUT: "db", Testcase: "load", Build: "S01"}
	ids1 := schema.Observe(e1)
	ids2 := schema.Observe(e2)
	m := New(smallConfig(), schema)
	c1 := m.EmbeddingFor(ids1)
	c2 := m.EmbeddingFor(ids2)
	d := m.cfg.EmbedDim
	if len(c1) != envmeta.NumFeatures*d {
		t.Fatalf("embedding length %d", len(c1))
	}
	// Shared SUT/testcase/build features → identical middle segments;
	// different testbeds → different first segment.
	firstDiffers := false
	for j := 0; j < d; j++ {
		if c1[j] != c2[j] {
			firstDiffers = true
		}
	}
	if !firstDiffers {
		t.Fatalf("different testbeds should differ in the first segment")
	}
	for j := d; j < 4*d; j++ {
		if c1[j] != c2[j] {
			t.Fatalf("shared features should share embedding segments")
		}
	}
	// Unseen values fall back to the <unk> row.
	unseen := schema.Encode(envmeta.Environment{Testbed: "never", SUT: "db", Testcase: "load", Build: "S01"})
	cu := m.EmbeddingFor(unseen)
	unkRow := m.embeddings[0].Table.Value.Row(nn.UnknownIndex)
	for j := 0; j < d; j++ {
		if cu[j] != unkRow[j] {
			t.Fatalf("unseen testbed should use <unk> embedding")
		}
	}
}

func TestEmbeddingMatrix(t *testing.T) {
	schema := envmeta.NewSchema()
	ids := [][envmeta.NumFeatures]int{
		schema.Observe(envmeta.Environment{Testbed: "a", SUT: "b", Testcase: "c", Build: "S1"}),
		schema.Observe(envmeta.Environment{Testbed: "d", SUT: "e", Testcase: "f", Build: "D1"}),
	}
	m := New(smallConfig(), schema)
	mat := m.EmbeddingMatrix(ids)
	if mat.Rows != 2 || mat.Cols != envmeta.NumFeatures*m.cfg.EmbedDim {
		t.Fatalf("matrix shape %dx%d", mat.Rows, mat.Cols)
	}
	want := m.EmbeddingFor(ids[1])
	for j, v := range want {
		if mat.At(1, j) != v {
			t.Fatalf("row 1 should equal EmbeddingFor")
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	schema := envmeta.NewSchema()
	b := twoEnvBatch(rng, schema, 50, 1)
	m := New(smallConfig(), schema)
	nn.Train(m, nn.NewAdam(0.01), b, nil, nn.TrainConfig{Epochs: 3, BatchSize: 16, Seed: 1})
	snap := m.Snapshot()
	if snap.Meta["kind"] != "env2vec" {
		t.Fatalf("meta missing")
	}
	m2 := New(smallConfig(), schema)
	if err := m2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	p1, p2 := m.Predict(b), m2.Predict(b)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("restored model predicts differently")
		}
	}
}

func TestSizeAndParameterCount(t *testing.T) {
	schema := envmeta.NewSchema()
	schema.Observe(envmeta.Environment{Testbed: "a", SUT: "b", Testcase: "c", Build: "S1"})
	m := New(DefaultConfig(14), schema)
	n := m.NumParameters()
	if n <= 0 {
		t.Fatalf("no parameters")
	}
	size, err := m.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if size <= 0 || size > 10*1024*1024 {
		t.Fatalf("model size %d bytes violates the <10MB storage claim", size)
	}
}

func TestUnkMaskTrainsUnknownEmbedding(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	schema := envmeta.NewSchema()
	b := twoEnvBatch(rng, schema, 200, 1)
	cfg := smallConfig()
	cfg.UnkProb = 0.3 // aggressive so the test is fast
	m := New(cfg, schema)
	before := append([]float64(nil), m.embeddings[0].Table.Value.Row(nn.UnknownIndex)...)
	nn.Train(m, nn.NewAdam(0.01), b, nil, nn.TrainConfig{Epochs: 10, BatchSize: 32, Seed: 1})
	after := m.embeddings[0].Table.Value.Row(nn.UnknownIndex)
	moved := false
	for j := range after {
		if after[j] != before[j] {
			moved = true
		}
	}
	if !moved {
		t.Fatalf("<unk> embedding never received gradient")
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig(86)
	if cfg.EmbedDim != 10 {
		t.Fatalf("paper initializes embeddings with dimension 10, got %d", cfg.EmbedDim)
	}
	if cfg.In != 86 {
		t.Fatalf("In not propagated")
	}
}

func TestTrainingDeterministic(t *testing.T) {
	run := func() float64 {
		rng := rand.New(rand.NewSource(5))
		schema := envmeta.NewSchema()
		b := twoEnvBatch(rng, schema, 100, 1)
		m := New(smallConfig(), schema)
		nn.Train(m, nn.NewAdam(0.01), b, nil, nn.TrainConfig{Epochs: 5, BatchSize: 16, Seed: 2})
		return nn.EvalMSE(m, b)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("training not deterministic: %v vs %v", a, b)
	}
}
