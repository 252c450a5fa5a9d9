// Benchmarks and allocation tests comparing the fused tape-free forward
// path against the inference-tape reference. They live in an external test
// package so they can assemble real core.Model instances without creating
// an import cycle (core imports infer; test binaries may import both).
//
// Run with:
//
//	go test -bench 'Forward(Tape|Infer)|TrainStep' -benchmem ./internal/infer/
package infer_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"env2vec/internal/autodiff"
	"env2vec/internal/core"
	"env2vec/internal/envmeta"
	"env2vec/internal/nn"
	"env2vec/internal/tensor"
)

// benchModel builds the paper-sized Env2Vec network (64 FNN units, 32 GRU
// units, embedding dim 10) over a window-20 RU history.
func benchModel(window int) (*core.Model, *envmeta.Schema) {
	schema := envmeta.NewSchema()
	for i := 0; i < 4; i++ {
		schema.Observe(envmeta.Environment{
			Testbed:  fmt.Sprintf("tb%d", i),
			SUT:      fmt.Sprintf("sut%d", i),
			Testcase: fmt.Sprintf("tc%d", i),
			Build:    fmt.Sprintf("b%d", i),
		})
	}
	cfg := core.Config{In: 8, Hidden: 64, GRUHidden: 32, EmbedDim: 10, Window: window, Seed: 1}
	return core.New(cfg, schema), schema
}

func benchBatch(rng *rand.Rand, schema *envmeta.Schema, n, in, window int) *nn.Batch {
	sizes := schema.Sizes()
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
			b.EnvIDs[k][i] = rng.Intn(sizes[k] + 1)
		}
	}
	return b
}

// TestInferAllocations asserts the headline property: steady-state fused
// prediction allocates a small constant (the returned slice plus pool
// bookkeeping), at least 4× below the tape path's per-op graph allocations.
// The bound is deliberately loose — GC can steal pooled arenas mid-run — but
// far tighter than the real gap (tape allocates thousands of objects here).
func TestInferAllocations(t *testing.T) {
	m, schema := benchModel(20)
	rng := rand.New(rand.NewSource(2))
	b := benchBatch(rng, schema, 8, 8, 20)
	m.Predict(b) // warm the arena pool

	inferAllocs := testing.AllocsPerRun(50, func() { m.Predict(b) })
	tapeAllocs := testing.AllocsPerRun(50, func() { m.PredictTape(b) })
	t.Logf("allocs/op: infer %.1f, tape %.1f", inferAllocs, tapeAllocs)
	if inferAllocs >= tapeAllocs/4 {
		t.Fatalf("fused path allocates %.1f/op vs tape %.1f/op; want ≥4× reduction", inferAllocs, tapeAllocs)
	}
}

// TestInfer32Allocations holds the float32 path to the float64 path's
// allocation guarantees at the pass sizes serving runs — a stream's lone
// window, a backlog of 8, a full wire frame of 32: Predict allocates exactly
// the returned slice (1 alloc steady-state, with slack for GC stealing
// pooled arenas) and PredictInto allocates nothing. The input conversion to
// float32 and every packed operand must come from the arena or from
// NewPredictor32, not the heap.
func TestInfer32Allocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; gate runs in the non-race pass")
	}
	m, schema := benchModel(20)
	p32 := m.NewPredictor32()
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 8, 32} {
		b := benchBatch(rng, schema, n, 8, 20)
		out := make([]float64, n)
		p32.PredictInto(out, b) // warm the arena pool

		if a := testing.AllocsPerRun(100, func() { p32.Predict(b) }); a > 1.5 {
			t.Fatalf("B%d: float32 Predict allocates %.1f/op; want ≤1 (the result slice)", n, a)
		}
		if a := testing.AllocsPerRun(100, func() { p32.PredictInto(out, b) }); a > 0.5 {
			t.Fatalf("B%d: float32 PredictInto allocates %.1f/op; want 0", n, a)
		}
	}
}

// TestExactZeroMallocsPerPass counts what testing.AllocsPerRun rounds away
// (0.6 allocations a pass reads as 0 there): runtime.MemStats.Mallocs over
// 5 000 warm PredictInto calls is exactly 0 for both precisions at the pass
// sizes serving runs, and a cold pass — a predictor's first, which grows the
// arena — costs no more than the 28 objects it did when each precision had
// its own predictor and arena.
func TestExactZeroMallocsPerPass(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; gate runs in the non-race pass")
	}
	// A collection empties the arena pool, and a goroutine that changes
	// processor misses what it put back on the last one: neither is the
	// predictor allocating, so neither may happen mid-count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mallocs := func(n int, f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 8, 32} {
		m, schema := benchModel(4) // the paper's window: a count does not depend on it, the test's wall time does
		p32 := m.NewPredictor32()
		b := benchBatch(rng, schema, n, 8, 4)
		out := make([]float64, n)
		for _, pass := range []struct {
			name string
			run  func()
		}{
			{"float64", func() { m.PredictInto(out, b) }},
			{"float32", func() { p32.PredictInto(out, b) }},
		} {
			cold := mallocs(1, pass.run)
			warm := mallocs(5000, pass.run)
			t.Logf("B%d %s: cold pass %d objects, 5000 warm passes %d", n, pass.name, cold, warm)
			if cold > 28 {
				t.Errorf("B%d %s: a cold pass allocates %d objects; want ≤ 28", n, pass.name, cold)
			}
			if warm != 0 {
				t.Errorf("B%d %s: 5000 warm passes allocate %d objects; want exactly 0", n, pass.name, warm)
			}
		}
	}
}

// trainStep returns one steady-state step of nn.Train on the paper-sized
// net at batch 32, window 20 — reset the tape, build the loss, sweep back,
// step Adam — and the function that gives the tape back.
func trainStep() (step, release func()) {
	m, schema := benchModel(20)
	rng := rand.New(rand.NewSource(2))
	bt := benchBatch(rng, schema, 32, 8, 20)
	tape, opt := autodiff.NewTape(), nn.NewAdam(1e-3)
	step = func() {
		tape.Reset()
		tape.Backward(m.Loss(tape, bt, true, rng))
		opt.Step(m.Params())
	}
	return step, tape.Release
}

// TestTrainStepAllocs pins what the tape's arena and the one-node GRU
// bought. Before the arena a train step allocated 4 162 objects (node,
// closure, captured variable, and a header plus storage for every value,
// gradient, transpose and product) and a tape forward 2 208; with it, one
// closure per operation was left, 451 and 442, about 420 of them the GRU's
// per-step operations. With the recurrence one node, what is left is a
// closure per remaining operation and the layers' own slices. The pins are
// the measured counts (33 and 24) plus 10 %.
func TestTrainStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; gate runs in the non-race pass")
	}
	step, release := trainStep()
	defer release()
	step() // grow the arena
	if a := testing.AllocsPerRun(20, step); a > 36 {
		t.Fatalf("one B32W20 train step allocates %.0f objects; want ≤ 36", a)
	}
	m, schema := benchModel(20)
	b := benchBatch(rand.New(rand.NewSource(2)), schema, 32, 8, 20)
	m.PredictTape(b) // warm the tape pool
	if a := testing.AllocsPerRun(20, func() { m.PredictTape(b) }); a > 26 {
		t.Fatalf("PredictTape B32W20 allocates %.0f objects; want ≤ 26", a)
	}
}

// BenchmarkTrainStep is the model owner's inner loop: tape, backward and
// Adam, reusing one tape as nn.Train does.
func BenchmarkTrainStep_B32W20(b *testing.B) {
	step, release := trainStep()
	defer release()
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

func benchForward(b *testing.B, batch int, window int, predict func(m *core.Model, bt *nn.Batch) []float64) {
	m, schema := benchModel(window)
	rng := rand.New(rand.NewSource(2))
	bt := benchBatch(rng, schema, batch, 8, window)
	predict(m, bt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		predict(m, bt)
	}
}

func BenchmarkForwardTape_B8W20(b *testing.B) {
	benchForward(b, 8, 20, (*core.Model).PredictTape)
}

func BenchmarkForwardInfer_B8W20(b *testing.B) {
	benchForward(b, 8, 20, (*core.Model).Predict)
}

func BenchmarkForwardTape_B32W20(b *testing.B) {
	benchForward(b, 32, 20, (*core.Model).PredictTape)
}

func BenchmarkForwardInfer_B32W20(b *testing.B) {
	benchForward(b, 32, 20, (*core.Model).Predict)
}

// One execution's windows in one pass: the shape pipeline.Workflow scores.
func BenchmarkForwardInfer_B64W20(b *testing.B) {
	benchForward(b, 64, 20, (*core.Model).Predict)
}

func benchForward32(b *testing.B, batch, window int) {
	m, schema := benchModel(window)
	p32 := m.NewPredictor32()
	rng := rand.New(rand.NewSource(2))
	bt := benchBatch(rng, schema, batch, 8, window)
	p32.Predict(bt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p32.Predict(bt)
	}
}

// BenchmarkForwardInfer32 is the float32 serving path: frozen converted
// weights, AVX2+FMA tiles on amd64. The committed BENCH_infer.json numbers
// for these are the ones the ≥2×-vs-float64 claim in docs/performance.md
// rests on.
func BenchmarkForwardInfer32_B1W20(b *testing.B) {
	benchForward32(b, 1, 20)
}

func BenchmarkForwardInfer32_B8W20(b *testing.B) {
	benchForward32(b, 8, 20)
}

func BenchmarkForwardInfer32_B32W20(b *testing.B) {
	benchForward32(b, 32, 20)
}

// BenchmarkForwardInferParallel measures the serving steady state: many
// goroutines sharing one model, each drawing a private scratch arena from
// the pool.
func BenchmarkForwardInferParallel_B8W20(b *testing.B) {
	m, schema := benchModel(20)
	rng := rand.New(rand.NewSource(2))
	bt := benchBatch(rng, schema, 8, 8, 20)
	m.Predict(bt)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.Predict(bt)
		}
	})
}

// A lone JSON request's pass: the live float64 predictor at batch 1. It runs
// last because a benchmark run in one process is not independent of what ran
// before it: ForwardInferParallel_B8W20 reads 165 µs right behind this one and
// 95 µs behind any other, with this predictor and with the one before PR 24.
func BenchmarkForwardInfer_B1W20(b *testing.B) {
	benchForward(b, 1, 20, (*core.Model).Predict)
}
