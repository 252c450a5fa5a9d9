// Tests for the float32 serving path at the bundle/server layer: precision
// parsing, PredictInto routing through the frozen float32 predictor, and
// the /metrics gauge that reports which path is live. Numeric
// parity itself is proven exhaustively by the cross-precision battery in
// internal/core; here the tolerance checks only guard the routing.
package serve

import (
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"env2vec/internal/envmeta"
	"env2vec/internal/nn"
	"env2vec/internal/tensor"
)

func TestParsePrecision(t *testing.T) {
	for s, want := range map[string]Precision{
		"":        PrecisionFloat64,
		"float64": PrecisionFloat64,
		"float32": PrecisionFloat32,
	} {
		got, err := ParsePrecision(s)
		if err != nil || got != want {
			t.Fatalf("ParsePrecision(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"f32", "float16", "double", "32"} {
		if _, err := ParsePrecision(s); err == nil {
			t.Fatalf("ParsePrecision(%q) should fail", s)
		}
	}
}

// requestBatch builds the single-row batch directPredict would, for driving
// Bundle.PredictInto directly (which consumes the batch).
func requestBatch(b *Bundle, req *Request) *nn.Batch {
	batch := &nn.Batch{
		X:      &tensor.Matrix{Rows: 1, Cols: len(req.CF), Data: append([]float64(nil), req.CF...)},
		Window: &tensor.Matrix{Rows: 1, Cols: len(req.Window), Data: append([]float64(nil), req.Window...)},
		Y:      tensor.New(1, 1),
		EnvIDs: make([][]int, envmeta.NumFeatures),
	}
	ids := b.Schema.Encode(envmeta.Environment{Testbed: req.Testbed, SUT: req.SUT, Testcase: req.Testcase, Build: req.Build})
	for k := range batch.EnvIDs {
		batch.EnvIDs[k] = []int{ids[k]}
	}
	return batch
}

func TestBundlePrecisionRouting(t *testing.T) {
	b64 := testBundle(5, 1)
	b32 := testBundle(5, 1)
	if got := b64.ActivePrecision(); got != PrecisionFloat64 {
		t.Fatalf("default precision %v, want float64", got)
	}
	if err := b32.SetPrecision(PrecisionFloat32); err != nil {
		t.Fatal(err)
	}
	if got := b32.ActivePrecision(); got != PrecisionFloat32 {
		t.Fatalf("precision after SetPrecision(float32): %v", got)
	}
	if err := b32.SetPrecision("float16"); err == nil {
		t.Fatal("SetPrecision(float16) should fail")
	}

	rng := rand.New(rand.NewSource(11))
	out64 := make([]float64, 1)
	out32 := make([]float64, 1)
	for i := 0; i < 20; i++ {
		req := randomRequest(rng)
		b64.PredictInto(out64, requestBatch(b64, req))
		b32.PredictInto(out32, requestBatch(b32, req))
		// Predictions are in raw RU units (YScale sigma=10 here), so the
		// float32 path's 1e-4 relative model-output contract widens by the
		// unscaling; 1e-3 absolute-ish slack is still ~1000× tighter than
		// any real quality threshold.
		scale := math.Max(1, math.Abs(out64[0]))
		if d := math.Abs(out32[0] - out64[0]); d > 1e-3*scale {
			t.Fatalf("req %d: float32 bundle %v vs float64 bundle %v (diff %g)", i, out32[0], out64[0], d)
		}
		if out32[0] == out64[0] {
			continue // identical is fine too, just means tiny round-off
		}
	}

	// Reverting to float64 drops the frozen predictor.
	if err := b32.SetPrecision(PrecisionFloat64); err != nil {
		t.Fatal(err)
	}
	if got := b32.ActivePrecision(); got != PrecisionFloat64 {
		t.Fatalf("precision after reverting: %v", got)
	}
}

// TestServerReportsPrecision boots a server on a float32 bundle and asserts
// the precision is visible where an operator looks: the
// env2vec_infer_precision gauge on /metrics.
func TestServerReportsPrecision(t *testing.T) {
	b := testBundle(1, 1)
	if err := b.SetPrecision(PrecisionFloat32); err != nil {
		t.Fatal(err)
	}
	s := New(Config{MaxBatch: 4, QueueDepth: 16, Workers: 1})
	defer s.Close()
	s.SetBundle(b)
	srv := httptest.NewServer(s)
	defer srv.Close()

	rng := rand.New(rand.NewSource(3))
	if _, _, err := s.Do(randomRequest(rng)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(page), "env2vec_infer_precision 32") {
		t.Fatalf("metrics page missing env2vec_infer_precision 32:\n%s", page)
	}

	// Swapping in a float64 bundle moves the gauge with it.
	s.SetBundle(testBundle(2, 2))
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(page), "env2vec_infer_precision 64") {
		t.Fatalf("metrics page missing env2vec_infer_precision 64 after swap:\n%s", page)
	}
}
