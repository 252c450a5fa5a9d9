package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"env2vec/internal/autodiff"
	"env2vec/internal/envmeta"
	"env2vec/internal/nn"
)

// TestFloat64BitIdenticalToGolden holds every float64 path to the bits it
// produced when testdata/f64_golden.txt was written, at the commit before the
// gate logistic became a vector kernel:
//
//   - PredictTape and Predict over the ragged and the aligned parity tables;
//   - a seeded training trajectory per head — Adam steps through Loss and
//     Backward with dropout and <unk> masking on — recording each step's loss
//     and, after the step, an FNV-64a hash of every parameter's bits.
//
// amd64 only, and only while math.Exp runs its FMA sequence (no
// GODEBUG=cpu.fma=off): anywhere else math.Exp is a different function and
// every answer moves in its last bits by design.
func TestFloat64BitIdenticalToGolden(t *testing.T) {
	// exp(−1.09) is one of the inputs the FMA and the non-FMA sequences of
	// math/exp_amd64.s round differently.
	if runtime.GOARCH != "amd64" || math.Float64bits(math.Exp(-1.09)) != 0x3fd584922f36284b {
		t.Skip("the golden was written by math.Exp's amd64 FMA sequence")
	}
	var got, labels []string
	add := func(v float64, label string) {
		got = append(got, fmt.Sprintf("%016x", math.Float64bits(v)))
		labels = append(labels, label)
	}
	for _, dims := range [][]parityDims{raggedDims, alignedDims} {
		forEachParityCaseAt(t, dims, func(t *testing.T, m *Model, b *nn.Batch, label string) {
			for i, v := range m.PredictTape(b) {
				add(v, fmt.Sprintf("%s row=%d tape", label, i))
			}
			for i, v := range m.Predict(b) {
				add(v, fmt.Sprintf("%s row=%d predict", label, i))
			}
		})
	}
	for _, c := range []struct {
		head      Head
		attention bool
		dims      parityDims
		window    int
	}{
		{HeadHadamard, false, parityDims{64, 32, 10}, 20},
		{HeadBilinear, true, parityDims{13, 7, 5}, 7},
		{HeadMLP, false, parityDims{21, 17, 3}, 4},
	} {
		name := fmt.Sprintf("train head=%v attention=%v H=%d", c.head, c.attention, c.dims.gruHidden)
		trainTrajectory(c.head, c.attention, c.dims, c.window, func(step int, loss float64, params []*nn.Param) {
			add(loss, fmt.Sprintf("%s step=%d loss", name, step))
			for _, p := range params {
				h := fnv.New64a()
				var buf [8]byte
				for _, v := range p.Value.Data {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
					h.Write(buf[:])
				}
				got = append(got, fmt.Sprintf("%016x", h.Sum64()))
				labels = append(labels, fmt.Sprintf("%s step=%d %s", name, step, p.Name))
			}
		})
	}
	compareGolden(t, "testdata/f64_golden.txt", got, labels)
}

// trainTrajectory runs six seeded Adam steps, one fresh batch of 16 each, on
// one recycled tape, and hands visit each step's loss and the parameters
// after the step.
func trainTrajectory(head Head, attention bool, d parityDims, window int, visit func(step int, loss float64, params []*nn.Param)) {
	schema := envmeta.NewSchema()
	for i := 0; i < 3; i++ {
		schema.Observe(envmeta.Environment{
			Testbed:  fmt.Sprintf("tb%d", i),
			SUT:      fmt.Sprintf("sut%d", i),
			Testcase: fmt.Sprintf("tc%d", i),
			Build:    fmt.Sprintf("b%d", i),
		})
	}
	cfg := Config{
		In: 3, Hidden: d.hidden, GRUHidden: d.gruHidden, EmbedDim: d.embedDim,
		Window: window, Dropout: 0.2, UnkProb: 0.05, Seed: 11, Head: head, Attention: attention,
	}
	m := New(cfg, schema)
	rng := rand.New(rand.NewSource(int64(17 + int(head))))
	tape, opt := autodiff.NewTape(), nn.NewAdam(1e-2)
	defer tape.Release()
	for step := 0; step < 6; step++ {
		b := randomParityBatch(rng, schema.Sizes(), 16, cfg.In, window)
		b.Y.RandNormal(rng, 2)
		tape.Reset()
		loss := m.Loss(tape, b, true, rng)
		tape.Backward(loss)
		opt.Step(m.Params())
		visit(step, loss.Value.Data[0], m.Params())
	}
}
