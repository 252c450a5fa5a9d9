package core

import (
	"math"
	"math/rand"
	"testing"

	"env2vec/internal/autodiff"
	"env2vec/internal/envmeta"
	"env2vec/internal/nn"
)

// tapeSources is what the gradient tests run over: tapes nothing has used,
// and one tape that held another model's backward pass and was Reset.
func tapeSources() map[string]func() *autodiff.Tape {
	rng := rand.New(rand.NewSource(99))
	schema := envmeta.NewSchema()
	other, batch := New(smallConfig(), schema), twoEnvBatch(rng, schema, 9, 2.0)
	shared := new(autodiff.Tape)
	return map[string]func() *autodiff.Tape{
		"fresh": func() *autodiff.Tape { return new(autodiff.Tape) },
		"recycled": func() *autodiff.Tape {
			shared.Reset()
			shared.Backward(other.Loss(shared, batch, true, rng))
			shared.Reset()
			return shared
		},
	}
}

// TestFullModelGradientCheck validates the analytic gradients of the entire
// Env2Vec computation graph — FNN tower, GRU over the window, embedding
// lookups, dense layer, and the Hadamard prediction head — against central
// finite differences, for every parameter. This is the strongest
// correctness guarantee the model has: if any layer's backward rule were
// wrong, training would still "work" (descend something), just not the MSE.
func TestFullModelGradientCheck(t *testing.T) {
	for _, head := range []Head{HeadHadamard, HeadBilinear, HeadMLP} {
		head := head
		t.Run(head.String(), func(t *testing.T) {
			for name, newTape := range tapeSources() {
				gradCheckVariant(t, name, newTape, head, false)
			}
		})
	}
	t.Run("attention", func(t *testing.T) {
		for name, newTape := range tapeSources() {
			gradCheckVariant(t, name, newTape, HeadHadamard, true)
		}
	})
}

func gradCheckVariant(t *testing.T, name string, newTape func() *autodiff.Tape, head Head, attention bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	schema := envmeta.NewSchema()
	batch := twoEnvBatch(rng, schema, 5, 1.0)
	cfg := Config{
		In: 2, Hidden: 3, GRUHidden: 2, EmbedDim: 2, Window: 2,
		Seed: 1, Head: head, Attention: attention,
	}
	m := New(cfg, schema)

	loss := func() float64 {
		return m.Loss(newTape(), batch, false, nil).Value.Data[0]
	}

	// Analytic gradients, snapshotted immediately: every later loss()
	// evaluation re-binds the parameters to another tape (or resets this
	// one), which would otherwise clobber Grad().
	tape := newTape()
	l := m.Loss(tape, batch, false, nil)
	tape.Backward(l)
	analytic := make([][]float64, len(m.Params()))
	for pi, p := range m.Params() {
		g := p.Grad()
		if g == nil {
			t.Fatalf("%s tape: param %s has no gradient", name, p.Name)
		}
		analytic[pi] = append([]float64(nil), g.Data...)
	}

	const h = 1e-6
	for pi, p := range m.Params() {
		grad := analytic[pi]
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + h
			up := loss()
			p.Value.Data[i] = orig - h
			down := loss()
			p.Value.Data[i] = orig
			numeric := (up - down) / (2 * h)
			if !(math.Abs(grad[i]-numeric) <= 1e-4*(1+math.Abs(numeric))) {
				t.Fatalf("%s tape: param %s elem %d: analytic %g vs numeric %g", name, p.Name, i, grad[i], numeric)
			}
		}
	}
}

// TestGradientsZeroForUnusedEmbeddings confirms that only looked-up (or
// <unk>) embedding rows receive gradient — the sparsity that makes
// embedding tables cheap to train.
func TestGradientsZeroForUnusedEmbeddings(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	schema := envmeta.NewSchema()
	// Observe two environments but build a batch that uses only the first.
	e1 := envmeta.Environment{Testbed: "tbA", SUT: "db", Testcase: "load", Build: "S01"}
	e2 := envmeta.Environment{Testbed: "tbB", SUT: "fw", Testcase: "soak", Build: "D01"}
	ids1 := schema.Observe(e1)
	ids2 := schema.Observe(e2)

	b := twoEnvBatch(rng, schema, 4, 1.0)
	for k := range b.EnvIDs {
		for i := range b.EnvIDs[k] {
			b.EnvIDs[k][i] = ids1[k]
		}
	}
	cfg := smallConfig()
	cfg.UnkProb = 0
	m := New(cfg, schema)
	for name, newTape := range tapeSources() {
		tape := newTape()
		loss := m.Loss(tape, b, false, nil)
		tape.Backward(loss)

		for k, emb := range m.embeddings {
			grad := emb.Table.Grad()
			usedRow := grad.Row(ids1[k])
			unusedRow := grad.Row(ids2[k])
			usedNorm, unusedNorm := 0.0, 0.0
			for j := range usedRow {
				usedNorm += usedRow[j] * usedRow[j]
				unusedNorm += unusedRow[j] * unusedRow[j]
			}
			if usedNorm == 0 {
				t.Fatalf("%s tape, feature %d: used embedding row got no gradient", name, k)
			}
			if unusedNorm != 0 {
				t.Fatalf("%s tape, feature %d: unused embedding row got gradient", name, k)
			}
		}
	}
}

// TestResetTapeIsFreshTape is the arena's contract at model scale: a train
// step on a tape that already ran one — other batch size, other data, its
// memory recycled by Reset — gives the loss and every parameter gradient of
// the same step on a tape nothing has used, bit for bit.
func TestResetTapeIsFreshTape(t *testing.T) {
	for _, v := range []struct {
		head      Head
		attention bool
	}{{HeadHadamard, false}, {HeadBilinear, true}, {HeadMLP, false}} {
		schema := envmeta.NewSchema()
		first := twoEnvBatch(rand.New(rand.NewSource(1)), schema, 11, 1.0)
		second := twoEnvBatch(rand.New(rand.NewSource(2)), schema, 6, 3.0)
		cfg := smallConfig()
		cfg.Dropout, cfg.Head, cfg.Attention = 0.2, v.head, v.attention
		m := New(cfg, schema)
		step := func(tape *autodiff.Tape, b *nn.Batch, seed int64) (float64, [][]float64) {
			loss := m.Loss(tape, b, true, rand.New(rand.NewSource(seed)))
			tape.Backward(loss)
			grads := make([][]float64, len(m.Params()))
			for i, p := range m.Params() {
				grads[i] = append([]float64(nil), p.Grad().Data...)
			}
			return loss.Value.Data[0], grads
		}
		reused := new(autodiff.Tape)
		step(reused, first, 1)
		reused.Reset()
		gotLoss, got := step(reused, second, 2)
		wantLoss, want := step(new(autodiff.Tape), second, 2)
		if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) || math.IsNaN(wantLoss) {
			t.Fatalf("head=%v attention=%v: loss %v on the reused tape, %v on a fresh one", v.head, v.attention, gotLoss, wantLoss)
		}
		for pi, p := range m.Params() {
			for i := range want[pi] {
				if math.Float64bits(got[pi][i]) != math.Float64bits(want[pi][i]) {
					t.Fatalf("head=%v attention=%v: %s gradient elem %d: %v on the reused tape, %v on a fresh one",
						v.head, v.attention, p.Name, i, got[pi][i], want[pi][i])
				}
			}
		}
	}
}
