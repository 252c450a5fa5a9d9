package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"env2vec/internal/autodiff"
	"env2vec/internal/envmeta"
	"env2vec/internal/nn"
)

// TestPredictConcurrent exercises the inference-tape path: many goroutines
// share one model and must all see identical, correct predictions without
// racing on parameter bindings (run with -race to verify). This is the
// property the internal/serve worker pool depends on.
func TestPredictConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	schema := envmeta.NewSchema()
	batch := twoEnvBatch(rng, schema, 64, 1.5)
	m := New(smallConfig(), schema)

	want := m.Predict(batch)
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 8; iter++ {
				got := m.Predict(batch)
				for i := range got {
					if math.Abs(got[i]-want[i]) > 1e-12 {
						errs <- "concurrent prediction diverged from serial prediction"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestPredictTapeConcurrent is the race gate for the tape pool: goroutines
// run the reference forward pass at different batch sizes while another
// trains a second model, so tapes of every size and both modes keep changing
// hands through autodiff's pool. Each prediction must equal, bit for bit,
// what the same call gave before any tape had been recycled (run with
// -race).
func TestPredictTapeConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	schema := envmeta.NewSchema()
	batches := []*nn.Batch{twoEnvBatch(rng, schema, 3, 1.5), twoEnvBatch(rng, schema, 64, 1.5), twoEnvBatch(rng, schema, 17, 1.5)}
	m, trained := New(smallConfig(), schema), New(smallConfig(), schema)
	want := make([][]float64, len(batches))
	for i, b := range batches {
		want[i] = m.PredictTape(b)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 24; iter++ {
				k := (g + iter) % len(batches)
				for i, v := range m.PredictTape(batches[k]) {
					if math.Float64bits(v) != math.Float64bits(want[k][i]) {
						errs <- "a pooled tape changed a prediction"
						return
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		nn.Train(trained, nn.NewAdam(0.01), batches[1], nil, nn.TrainConfig{Epochs: 6, BatchSize: 16, Seed: 1})
	}()
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestPredictConcurrentMixedPrecisionTraining is the race gate for the
// float32 serving path: Adam keeps stepping the model's float64 weights
// while float32 predictors — frozen snapshots taken before training — keep
// predicting concurrently with NO synchronization, and float64 predictors
// interleave with the optimizer under the lock training requires. Run with
// -race. The properties:
//
//   - the frozen float32 path never races with training (it copied its
//     weights at construction) and its outputs stay bit-stable throughout;
//   - a float32 predictor built AFTER training reflects the new weights,
//     proving the freeze is per-snapshot, not per-model;
//   - the live-weight float64 path sees every completed optimizer step
//     (reads synchronized the way a training loop that also serves must).
func TestPredictConcurrentMixedPrecisionTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	schema := envmeta.NewSchema()
	batch := twoEnvBatch(rng, schema, 16, 1.5)
	m := New(smallConfig(), schema)

	p32 := m.NewPredictor32()
	want32 := p32.Predict(batch)
	opt := nn.NewAdam(0.01)

	var mu sync.RWMutex // write: optimizer steps; read: live-weight f64 predicts
	done := make(chan struct{})
	errs := make(chan string, 16)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // trainer: real tape backward + Adam steps, in-place mutation
		defer wg.Done()
		defer close(done)
		for step := 0; step < 30; step++ {
			mu.Lock()
			tape := autodiff.NewTape()
			loss := m.Loss(tape, batch, true, rng)
			tape.Backward(loss)
			opt.Step(m.Params())
			mu.Unlock()
		}
	}()
	for g := 0; g < 4; g++ { // frozen float32 predictors: no lock at all
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				got := p32.Predict(batch)
				for i := range got {
					if got[i] != want32[i] {
						errs <- "frozen float32 predictions changed while training mutated the model"
						return
					}
				}
			}
		}()
	}
	for g := 0; g < 4; g++ { // live-weight float64 predictors, read-locked
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				mu.RLock()
				got := m.Predict(batch)
				mu.RUnlock()
				for _, v := range got {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						errs <- "live float64 prediction produced a non-finite value mid-training"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}

	// The freeze is per-snapshot: a new conversion sees the trained weights.
	after32 := m.NewPredictor32().Predict(batch)
	wantAfter := m.Predict(batch)
	moved := false
	for i := range after32 {
		scale := math.Max(1, math.Abs(wantAfter[i]))
		if math.Abs(after32[i]-wantAfter[i]) > 1e-4*scale {
			t.Fatalf("row %d: post-training float32 %v vs float64 %v", i, after32[i], wantAfter[i])
		}
		if after32[i] != want32[i] {
			moved = true
		}
	}
	if !moved {
		t.Fatal("training did not change predictions — the race test exercised nothing")
	}
}

// TestPredictConcurrentMixedBatches stresses the fused path's scratch-arena
// pool: goroutines predicting at different batch sizes force arenas to be
// recycled across differently shaped passes (growth, chunk reuse, header
// reuse). Run with -race; any cross-pass sharing of scratch shows up as a
// data race or a numeric divergence.
func TestPredictConcurrentMixedBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	schema := envmeta.NewSchema()
	m := New(smallConfig(), schema)

	sizes := []int{1, 3, 8, 32, 64}
	batches := make([]*nn.Batch, len(sizes))
	want := make([][]float64, len(sizes))
	for i, n := range sizes {
		batches[i] = twoEnvBatch(rng, schema, n, 1.5)
		want[i] = m.Predict(batches[i])
	}

	const goroutines = 12
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 10; iter++ {
				k := (g + iter) % len(sizes)
				got := m.Predict(batches[k])
				for i := range got {
					if math.Abs(got[i]-want[k][i]) > 1e-12 {
						errs <- "mixed-batch concurrent prediction diverged"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}
