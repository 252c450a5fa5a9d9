// The cross-precision parity battery: every serving path — the autodiff
// tape reference, the fused float64 path (register-blocked kernels), and
// the frozen float32 path (vector tiles on amd64) — must agree on the same
// inputs to its documented tolerance:
//
//   - fused float64 vs tape: ≤1e-12 relative. The blocked kernels keep the
//     naive kernels' per-element accumulation order, so this is the same
//     round-off bound the pre-blocking path satisfied.
//   - float32 vs tape: ≤1e-4 of max(1, |tape|, Σ|terms|), where Σ|terms| is
//     the magnitude of the head's final sum (headTerms). Weights round once
//     at load, inputs once per call, and the error then grows with
//     accumulation length; docs/performance.md derives the budget. A head
//     whose terms cancel answers a small number carrying the rounding of
//     large ones, so the error is relative to the terms, not to the answer.
//     In practice the observed gap is ~1e-6; 1e-4 is the contract serving
//     alerts on.
//
// Hidden sizes here are deliberately NOT multiples of the 4-lane block
// width (and not multiples of the 16-column float32 vector tile), so every
// ragged tail path in the kernels is load-bearing in these assertions.
package core

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"env2vec/internal/autodiff"
	"env2vec/internal/envmeta"
	"env2vec/internal/nn"
)

// randomizeParamsScaled perturbs every weight like a trained network looks:
// zero-mean with σ = 1/√fan-in per matrix (Xavier-style). The flat-σ
// randomizeParams used by the float64 parity tests is deliberately harsher,
// but at σ=0.5 a 30-wide recurrent matrix has spectral radius ≈ 2.7 — the
// hidden state then amplifies float32 round-off exponentially over 20 steps,
// a regime no initialized or trained model operates in. The 1e-4 float32
// contract is for realistic weight magnitudes, so this battery tests there.
func randomizeParamsScaled(m *Model, rng *rand.Rand) {
	for _, p := range m.Params() {
		sigma := 1 / math.Sqrt(float64(p.Value.Rows))
		for i := range p.Value.Data {
			p.Value.Data[i] = rng.NormFloat64() * sigma
		}
	}
}

// worstGap is the largest relative distance from the tape each path has
// shown in this test binary: what the contracts' margins are measured by.
var worstGap struct{ fused, f32 float64 }

// assertParity checks one batch across all three paths.
func assertParity(t *testing.T, m *Model, b *nn.Batch, label string) {
	t.Helper()
	tape := m.PredictTape(b)
	fused := m.Predict(b)
	f32 := m.NewPredictor32().Predict(b)
	terms := headTerms(m, b)
	if len(fused) != len(tape) || len(f32) != len(tape) {
		t.Fatalf("%s: prediction lengths diverge (tape %d, fused %d, f32 %d)", label, len(tape), len(fused), len(f32))
	}
	for i := range tape {
		scale := math.Max(1, math.Abs(tape[i]))
		scale32 := math.Max(scale, terms[i])
		d, d32 := math.Abs(fused[i]-tape[i]), math.Abs(f32[i]-tape[i])
		if d > 1e-12*scale {
			t.Fatalf("%s row %d: fused f64 %v vs tape %v (diff %g > 1e-12 rel)", label, i, fused[i], tape[i], d)
		}
		if d32 > 1e-4*scale32 {
			t.Fatalf("%s row %d: f32 %v vs tape %v (diff %g > 1e-4 of max(1, |tape|, Σ|terms| %g))", label, i, f32[i], tape[i], d32, terms[i])
		}
		worstGap.fused, worstGap.f32 = math.Max(worstGap.fused, d/scale), math.Max(worstGap.f32, d32/scale32)
	}
}

// headTerms is, per row, Σ|terms| of the head's final sum on the float64
// tape: Σ|v_d ⊙ C| (Hadamard), Σ|(v_d R) ⊙ C| (bilinear), or Σ|h_j w_j| + |b|
// over the MLP head's output layer.
func headTerms(m *Model, b *nn.Batch) []float64 {
	t := autodiff.NewInferenceTape()
	defer t.Release()
	vd, c := m.headInputs(t, b, false, nil)
	out := make([]float64, b.Len())
	switch m.cfg.Head {
	case HeadMLP:
		h := m.headMLP.HiddenForward(t, t.ConcatCols(vd, c), false, nil)
		w := m.headMLP.Out.W.Value.Data
		for i := range out {
			out[i] = math.Abs(m.headMLP.Out.B.Value.Data[0])
			for j, v := range h.Value.Row(i) {
				out[i] += math.Abs(v * w[j])
			}
		}
		return out
	case HeadBilinear:
		vd = t.MatMul(vd, t.Constant(m.bilinear.Value))
	}
	for i := range out {
		for j, v := range vd.Value.Row(i) {
			out[i] += math.Abs(v * c.Value.At(i, j))
		}
	}
	return out
}

// forEachParityCase walks the battery's table — all heads × attention on/off
// × tail-heavy hidden sizes × window lengths 1..20 × batch sizes 1..32, every
// model and batch seeded — and hands each (model, batch) to visit inside a
// subtest per architecture.
func forEachParityCase(t *testing.T, visit func(t *testing.T, m *Model, b *nn.Batch, label string)) {
	forEachParityCaseAt(t, raggedDims, visit)
}

type parityDims struct{ hidden, gruHidden, embedDim int }

// raggedDims: GRU/FNN widths that straddle the 4-lane block width, the
// 8-lane elementwise kernels and the 16-column vector tile — primes,
// one-past-a-multiple, and one big enough to hit full tiles plus a tail.
var raggedDims = []parityDims{{9, 5, 3}, {13, 7, 5}, {21, 17, 3}, {34, 30, 5}}

// alignedDims: widths the vector kernels take whole, with no Go tail behind
// them — one 8-lane group, and the paper-sized network serving runs (64 FNN
// units, 32 GRU units, 4 tables of 10: a 40-wide dense layer).
var alignedDims = []parityDims{{16, 8, 2}, {64, 32, 10}}

func forEachParityCaseAt(t *testing.T, dims []parityDims, visit func(t *testing.T, m *Model, b *nn.Batch, label string)) {
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

	for _, head := range []Head{HeadHadamard, HeadBilinear, HeadMLP} {
		for _, attention := range []bool{false, true} {
			for di, d := range dims {
				name := fmt.Sprintf("head=%v/attention=%v/H=%d", head, attention, d.gruHidden)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(1000*int(head) + 100*b2i(attention) + di)))
					for _, window := range []int{1, 2, 7, 20} {
						cfg := Config{
							In: 3, Hidden: d.hidden, GRUHidden: d.gruHidden, EmbedDim: d.embedDim,
							Window: window, Seed: 5, Head: head, Attention: attention,
						}
						m := New(cfg, schema)
						randomizeParamsScaled(m, rng)
						for _, n := range []int{1, 3, 8, 32} {
							b := randomParityBatch(rng, sizes, n, cfg.In, window)
							visit(t, m, b, fmt.Sprintf("%s window=%d n=%d", name, window, n))
						}
					}
				})
			}
		}
	}
}

// TestCrossPrecisionParity is the table-driven battery: every case of
// forEachParityCase across all three paths.
func TestCrossPrecisionParity(t *testing.T) {
	forEachParityCase(t, assertParity)
	t.Logf("worst relative gap to the tape: fused float64 %.2g (contract 1e-12), float32 %.2g of the head's terms (contract 1e-4)", worstGap.fused, worstGap.f32)
}

var updateGolden = flag.Bool("update", false, "rewrite the golden file (float32 or float64) of every golden test that runs from this build's answers")

// TestFloat32BitIdenticalToGolden holds the float32 serving path to the bits
// it answered when testdata/f32_golden.txt was written (the commit before the
// two predictors became one): the whole parity table through
// NewPredictor32().Predict, compared by math.Float64bits. amd64 only — the
// scalar tiles of other platforms round differently from FMA by design.
func TestFloat32BitIdenticalToGolden(t *testing.T) {
	checkFloat32Golden(t, "testdata/f32_golden.txt", raggedDims)
}

// TestFloat32BitIdenticalToGoldenAligned is the same pin at alignedDims,
// written by the commit before the GRU's elementwise loops became batch-wide
// vector kernels (PR 24), when they were Go expressions: at these widths
// every element goes through the assembly and none through the Go tail, which
// the ragged table cannot show. The rows also go through the three-way
// tolerance contract.
func TestFloat32BitIdenticalToGoldenAligned(t *testing.T) {
	forEachParityCaseAt(t, alignedDims, assertParity)
	checkFloat32Golden(t, "testdata/f32_golden_aligned.txt", alignedDims)
}

func checkFloat32Golden(t *testing.T, path string, dims []parityDims) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the golden was written by the amd64 FMA tiles")
	}
	var got, labels []string
	forEachParityCaseAt(t, dims, func(t *testing.T, m *Model, b *nn.Batch, label string) {
		for i, v := range m.NewPredictor32().Predict(b) {
			got = append(got, fmt.Sprintf("%016x", math.Float64bits(v)))
			labels = append(labels, fmt.Sprintf("%s row=%d", label, i))
		}
	})
	compareGolden(t, path, got, labels)
}

// compareGolden holds got, one %016x line per answer, to the golden file at
// path — or, under -update, rewrites the file from it. labels name each line
// for the failure message.
func compareGolden(t *testing.T, path string, got, labels []string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d outputs, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output %d (%s): got %s, golden %s", i, labels[i], got[i], want[i])
		}
	}
}

// FuzzPredictParity lets the fuzzer pick the architecture, batch shape, and
// weight seed; the property is the same three-way tolerance contract. The
// corpus seeds cover each head and the attention path;
// testdata/fuzz/FuzzPredictParity holds a bilinear head whose row sums cancel
// 300- to 600-fold, which failed a bound relative to the answer alone.
func FuzzPredictParity(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(19), uint8(4), uint8(0), false)
	f.Add(int64(2), uint8(7), uint8(0), uint8(2), uint8(1), false)
	f.Add(int64(3), uint8(31), uint8(9), uint8(11), uint8(2), true)
	f.Add(int64(4), uint8(2), uint8(4), uint8(0), uint8(0), true)

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

	f.Fuzz(func(t *testing.T, seed int64, batchSel, windowSel, hiddenSel, headSel uint8, attention bool) {
		n := int(batchSel)%32 + 1       // 1..32
		window := int(windowSel)%20 + 1 // 1..20
		gruH := int(hiddenSel)%15 + 2   // 2..16, mostly off the lane width
		head := Head(int(headSel) % 3)
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			In: 3, Hidden: gruH + 3, GRUHidden: gruH, EmbedDim: 3,
			Window: window, Seed: seed, Head: head, Attention: attention,
		}
		m := New(cfg, schema)
		randomizeParamsScaled(m, rng)
		b := randomParityBatch(rng, sizes, n, cfg.In, window)
		assertParity(t, m, b, fmt.Sprintf("seed=%d n=%d window=%d H=%d head=%v attn=%v", seed, n, window, gruH, head, attention))
	})
}
