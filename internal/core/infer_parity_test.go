package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"env2vec/internal/autodiff"
	"env2vec/internal/envmeta"
	"env2vec/internal/nn"
	"env2vec/internal/tensor"
)

// randomizeParams replaces every trainable matrix with fresh random values,
// so parity is checked at an arbitrary point in weight space rather than at
// the (partly zero) initialization.
func randomizeParams(m *Model, rng *rand.Rand) {
	for _, p := range m.Params() {
		for i := range p.Value.Data {
			p.Value.Data[i] = rng.NormFloat64() * 0.5
		}
	}
}

// randomParityBatch builds a batch with random features, windows, and env
// ids — including deliberately out-of-range ids to exercise the <unk> clamp
// on both forward paths.
func randomParityBatch(rng *rand.Rand, sizes [envmeta.NumFeatures]int, n, in, window int) *nn.Batch {
	b := &nn.Batch{
		X:      tensor.New(n, in),
		Window: tensor.New(n, window),
		Y:      tensor.New(n, 1),
		EnvIDs: make([][]int, envmeta.NumFeatures),
	}
	b.X.RandNormal(rng, 1)
	b.Window.RandNormal(rng, 1)
	for k := range b.EnvIDs {
		b.EnvIDs[k] = make([]int, n)
		for i := range b.EnvIDs[k] {
			switch rng.Intn(8) {
			case 0:
				b.EnvIDs[k][i] = -1 - rng.Intn(3) // negative → <unk>
			case 1:
				b.EnvIDs[k][i] = sizes[k] + 1 + rng.Intn(3) // past vocab → <unk>
			default:
				b.EnvIDs[k][i] = rng.Intn(sizes[k] + 1)
			}
		}
	}
	return b
}

// TestInferMatchesTape is the fused-path acceptance property: across every
// head, with and without attention, and across batch and window sizes, the
// tape-free path must agree with the inference-tape reference far below the
// documented 1e-9 bound. The two paths share operation order, so they agree
// to float64 round-off.
func TestInferMatchesTape(t *testing.T) {
	schema := envmeta.NewSchema()
	for i := 0; i < 3; i++ {
		schema.Observe(envmeta.Environment{
			Testbed:  fmt.Sprintf("tb%d", i),
			SUT:      fmt.Sprintf("sut%d", i),
			Testcase: fmt.Sprintf("tc%d", i),
			Build:    fmt.Sprintf("b%d", i),
		})
	}
	sizes := schema.Sizes()

	heads := []Head{HeadHadamard, HeadBilinear, HeadMLP}
	for _, head := range heads {
		for _, attention := range []bool{false, true} {
			for _, window := range []int{1, 5, 20} {
				name := fmt.Sprintf("head=%v/attention=%v/window=%d", head, attention, window)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(97*int(head) + 13*window + b2i(attention))))
					cfg := Config{
						In: 3, Hidden: 8, GRUHidden: 5, EmbedDim: 3,
						Window: window, Seed: 3, Head: head, Attention: attention,
					}
					m := New(cfg, schema)
					randomizeParams(m, rng)
					for _, n := range []int{1, 3, 8, 32} {
						b := randomParityBatch(rng, sizes, n, cfg.In, window)
						got := m.Predict(b)
						want := m.PredictTape(b)
						if len(got) != len(want) {
							t.Fatalf("n=%d: got %d predictions, want %d", n, len(got), len(want))
						}
						for i := range got {
							diff := math.Abs(got[i] - want[i])
							scale := math.Max(1, math.Abs(want[i]))
							if diff > 1e-12*scale {
								t.Fatalf("n=%d row %d: infer %v vs tape %v (diff %g)", n, i, got[i], want[i], diff)
							}
						}
					}
				})
			}
		}
	}
}

// TestInferTracksWeightMutation guards both liveness contracts. The live
// float64 predictor caches nothing: Predict must see optimizer-style in-place
// weight updates and snapshot restores without any predictor rebuild. The
// frozen float32 predictor reads nothing again: one taken before the
// mutation answers the same bits after it and after the restore.
func TestInferTracksWeightMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	schema := envmeta.NewSchema()
	batch := twoEnvBatch(rng, schema, 16, 1.0)
	m := New(smallConfig(), schema)

	before := m.Predict(batch)
	snap := m.Snapshot()
	frozen := m.NewPredictor32()
	frozenBefore := frozen.Predict(batch)
	frozenUnmoved := func(when string) {
		t.Helper()
		for i, v := range frozen.Predict(batch) {
			if math.Float64bits(v) != math.Float64bits(frozenBefore[i]) {
				t.Fatalf("%s: frozen float32 prediction %d moved from %v to %v", when, i, frozenBefore[i], v)
			}
		}
	}

	// Mutate every weight in place, the way Adam steps and Restore do.
	for _, p := range m.Params() {
		for i := range p.Value.Data {
			p.Value.Data[i] += 0.1 * (rng.Float64() - 0.5)
		}
	}
	after := m.Predict(batch)
	if wantAfter := m.PredictTape(batch); !closeTo(after, wantAfter, 1e-12) {
		t.Fatalf("post-mutation predictions diverge from tape")
	}
	changed := false
	for i := range after {
		if after[i] != before[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatalf("weight mutation did not affect predictions — predictor is caching weights")
	}
	frozenUnmoved("after the mutation")

	if err := m.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if restored := m.Predict(batch); !closeTo(restored, before, 1e-12) {
		t.Fatalf("post-restore predictions differ from pre-snapshot predictions")
	}
	frozenUnmoved("after the restore")
}

func closeTo(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestNonFiniteWeightReachesEveryPath is the regression for a reference that
// disagreed with what is served: the tape's old matrix product skipped zero
// operands, so with h₀ = 0 — every first GRU step — a NaN in a recurrent
// weight never reached a one-step window's tape prediction, while the fused
// paths, which multiply everything, answered NaN. A diverged model must not
// score "finite" on any path.
func TestNonFiniteWeightReachesEveryPath(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	schema := envmeta.NewSchema()
	batch := twoEnvBatch(rng, schema, 4, 1.0)
	batch.Window = tensor.New(4, 1) // one step: the only recurrent product is h₀·U
	cfg := smallConfig()
	cfg.Window = 1
	m := New(cfg, schema)
	m.gru.Uz.Value.Data[0] = math.NaN()

	tape := autodiff.NewTape()
	defer tape.Release()
	paths := map[string]float64{
		"PredictTape":              m.PredictTape(batch)[0],
		"Predict":                  m.Predict(batch)[0],
		"NewPredictor32().Predict": m.NewPredictor32().Predict(batch)[0],
		"Loss":                     m.Loss(tape, batch, false, nil).Value.Data[0],
	}
	for name, v := range paths {
		if !math.IsNaN(v) {
			t.Errorf("%s = %v with a NaN recurrent weight; want NaN", name, v)
		}
	}
}
