package serve

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"env2vec/internal/envmeta"
	"env2vec/internal/nn"
	"env2vec/internal/obs"
	"env2vec/internal/quality"
	"env2vec/internal/tensor"
)

// noTraces is a trace store that keeps nothing it is not forced to: a
// served request's trace is always dropped.
var noTraces = obs.TraceStoreConfig{SampleRate: -1, SlowMS: -1}

// allocServer is a server with the quality monitor on, so every request
// without its actual also leaves a pending prediction, and a frame of n
// requests of one environment, as a client sends it.
func allocServer(t *testing.T, n int, trace obs.TraceStoreConfig) (*Server, []*Request) {
	t.Helper()
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; gate runs in the non-race pass")
	}
	s := New(Config{MaxBatch: 32, Workers: 1, Quality: &quality.Config{}, Trace: trace})
	t.Cleanup(s.Close)
	b := testBundle(1, 1)
	b.Baseline = &quality.Baseline{Mu: 0, Sigma: 5, Samples: 100}
	s.SetBundle(b)
	rng := rand.New(rand.NewSource(5))
	reqs := make([]*Request, n)
	for i := range reqs {
		reqs[i] = randomRequest(rng)
		reqs[i].Testbed, reqs[i].Build = testEnvs[0].Testbed, testEnvs[0].Build
		reqs[i].RequestID = fmt.Sprintf("%016x", i)
		reqs[i].TraceParent = obs.FormatTraceParent(reqs[i].RequestID, "00000000000000aa")
	}
	return s, reqs
}

// TestServeDoAllocs: a request served through Do costs the one object that
// holds its item, its response and its completion — and, for the one trace
// in ten the default sampler keeps, that trace. It was 16 for every request.
func TestServeDoAllocs(t *testing.T) {
	for name, c := range map[string]struct {
		trace obs.TraceStoreConfig
		max   float64
	}{
		"dropped trace":    {noTraces, 2}, // the second is the pending map's id chunk, one in 256 requests
		"default sampling": {obs.TraceStoreConfig{}, 6},
	} {
		s, reqs := allocServer(t, 1, c.trace)
		do := func() {
			if _, code, err := s.Do(reqs[0]); err != nil {
				t.Fatalf("do: %d %v", code, err)
			}
		}
		do()
		if n := testing.AllocsPerRun(1000, do); n > c.max {
			t.Errorf("%s: one Do allocates %.1f objects, want at most %.0f", name, n, c.max)
		}
	}
}

// TestDoBatchAllocs: a frame is admitted on one slab of items, answered
// into one slab of responses and completed once, so with its traces dropped
// it costs a handful of objects however many windows it carries.
func TestDoBatchAllocs(t *testing.T) {
	s, reqs := allocServer(t, 32, noTraces)
	perFrame := func(n int) float64 {
		frame := func() {
			for _, r := range s.DoBatch(reqs[:n]) {
				if r.Err != nil || r.Resp.BatchSize != n {
					t.Fatalf("frame request: %+v", r)
				}
			}
		}
		frame()
		return testing.AllocsPerRun(200, frame)
	}
	small, full := perFrame(4), perFrame(32)
	t.Logf("a frame of 4: %.1f allocs; a frame of 32: %.1f allocs", small, full)
	if full > 8 {
		t.Errorf("a frame of 32 allocates %.1f objects, want at most 8", full)
	}
	if full-small > 1 { // the pending map's id chunks: one per 256 ids
		t.Errorf("a frame of 4 allocates %.1f objects, a frame of 32 %.1f: something is allocated per window", small, full)
	}
}

// TestBackendDroppedTraceMaterialisesNoSpans is the backend's own twin of
// the proxy's TestWireDroppedTraceMaterialisesNoSpans: a served request's
// spans exist as a tree only in a trace the server's store keeps. A kept
// tree costs at least its slice and the two attribute maps, so a frame whose
// traces are all kept allocates at least a span's worth more per span than
// one whose traces are all dropped, which builds none.
func TestBackendDroppedTraceMaterialisesNoSpans(t *testing.T) {
	const windows, stageSpans = 32, 3
	perFrame := func(trace obs.TraceStoreConfig) (float64, *Server) {
		s, reqs := allocServer(t, windows, trace)
		frame := func() {
			for _, r := range s.DoBatch(reqs) {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
			}
		}
		frame()
		return testing.AllocsPerRun(50, frame), s
	}
	dropped, s := perFrame(noTraces)
	if n := s.Traces().Len(); n != 0 {
		t.Fatalf("sampling off, yet %d traces stored", n)
	}
	kept, s := perFrame(obs.TraceStoreConfig{Capacity: 64, SampleRate: 1})
	if n := s.Traces().Len(); n != windows {
		t.Fatalf("sampling at 1, yet %d traces stored, want %d", n, windows)
	}
	t.Logf("a frame of %d: %.0f allocs with every trace kept, %.0f with every trace dropped", windows, kept, dropped)
	if kept-dropped < windows*stageSpans {
		t.Fatalf("a kept frame allocates %.0f, a dropped one %.0f: the %d spans were materialised either way",
			kept, dropped, windows*stageSpans)
	}
}

// TestForwardStageAllocs is the PR-4 follow-up gate: the serve worker's
// forward stage (Bundle.PredictInto — standardize, scale, fused forward,
// unscale) must not allocate in steady state now that it rides
// infer.PredictInto with caller-owned result storage. The bound allows one
// stray allocation because GC can steal pooled scratch arenas mid-run; the
// regression being guarded against is the old Scale/Predict/Unscale chain's
// four-plus slices per pass.
func TestForwardStageAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; gate runs in the non-race pass")
	}
	b := testBundle(7, 1)
	const n = 8
	cfg := b.Model.Config()
	rng := rand.New(rand.NewSource(9))
	batch := &nn.Batch{
		X:      tensor.New(n, cfg.In),
		Window: tensor.New(n, cfg.Window),
		EnvIDs: make([][]int, envmeta.NumFeatures),
	}
	for i := range batch.X.Data {
		batch.X.Data[i] = rng.NormFloat64()
	}
	for i := range batch.Window.Data {
		batch.Window.Data[i] = 50 + rng.NormFloat64()
	}
	ids := b.Schema.Encode(testEnvs[0])
	for k := range batch.EnvIDs {
		batch.EnvIDs[k] = make([]int, n)
		for i := range batch.EnvIDs[k] {
			batch.EnvIDs[k][i] = ids[k]
		}
	}
	preds := make([]float64, n)

	b.PredictInto(preds, batch) // warm the arena pool
	for _, p := range preds {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("warmup produced %v", preds)
		}
	}
	allocs := testing.AllocsPerRun(100, func() { b.PredictInto(preds, batch) })
	t.Logf("forward stage allocs/op: %.1f", allocs)
	if allocs > 1 {
		t.Fatalf("forward stage allocates %.1f/op in steady state; want ≤1", allocs)
	}
}

// TestBundlePredictIntoMatchesScalePredictUnscale pins the in-place path to
// the allocating reference arithmetic bit-for-bit.
func TestBundlePredictIntoMatchesScalePredictUnscale(t *testing.T) {
	b := testBundle(11, 1)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 8; trial++ {
		req := randomRequest(rng)
		want := directPredict(b, req) // Scale → Predict → Unscale chain

		batch := &nn.Batch{
			X:      tensor.FromSlice(1, len(req.CF), append([]float64(nil), req.CF...)),
			Window: tensor.FromSlice(1, len(req.Window), append([]float64(nil), req.Window...)),
			EnvIDs: make([][]int, envmeta.NumFeatures),
		}
		ids := b.Schema.Encode(envmeta.Environment{Testbed: req.Testbed, SUT: req.SUT, Testcase: req.Testcase, Build: req.Build})
		for k := range batch.EnvIDs {
			batch.EnvIDs[k] = []int{ids[k]}
		}
		got := make([]float64, 1)
		b.PredictInto(got, batch)
		if got[0] != want {
			t.Fatalf("trial %d: in-place %v, reference %v", trial, got[0], want)
		}
	}
}
