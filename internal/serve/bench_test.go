package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"

	"env2vec/internal/core"
	"env2vec/internal/dataset"
	"env2vec/internal/envmeta"
	"env2vec/internal/quality"
)

// benchServer builds a realistic serving stack (model, schema, quality
// monitor) sized like the paper's production model so ns/op tracks the
// real forward cost, not a toy.
func benchServer(b *testing.B, workers int) *Server {
	b.Helper()
	cfg := core.Config{In: 8, Hidden: 64, GRUHidden: 32, EmbedDim: 8, Window: 16, Seed: 42}
	schema := envmeta.NewSchema()
	schema.Observe(envmeta.Environment{Testbed: "tb1", SUT: "fw", Testcase: "load", Build: "B1"})
	schema.Freeze()
	// Every trace is dropped: one the sampler keeps is built (a dozen
	// objects, TestBackendDroppedTraceMaterialisesNoSpans), and a coin would
	// make allocs/op, which the benchjson gate holds exactly, a matter of luck.
	s := New(Config{
		MaxBatch: 32, QueueDepth: 1024, Workers: workers,
		Quality: &quality.Config{}, Trace: noTraces,
	})
	b.Cleanup(s.Close)
	s.SetBundle(&Bundle{
		Name: "bench", Version: 1,
		Model:    core.New(cfg, schema),
		Schema:   schema,
		YScale:   dataset.YScaler{Mu: 50, Sigma: 10},
		Baseline: &quality.Baseline{Mu: 0, Sigma: 5, Samples: 100},
	})
	// Take the batch ids past strconv's preallocated small integers, so
	// the allocs/op of a JSON reply (whose trace block prints the id) does
	// not depend on how many of b.N's passes came before id 100 — the
	// benchjson gate fails on any allocs/op growth.
	for req := benchRequest(); s.Stats().Batches < 100; {
		if _, _, err := s.Do(req); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

func benchRequest() *Request {
	cf := make([]float64, 8)
	window := make([]float64, 16)
	for i := range cf {
		cf[i] = float64(i) * 0.1
	}
	for i := range window {
		window[i] = 50 + float64(i)
	}
	return &Request{
		CF: cf, Window: window,
		Testbed: "tb1", SUT: "fw", Testcase: "load", Build: "B1",
	}
}

// BenchmarkServeDo measures the in-process serving path one request at a
// time: admission, a pass of one, and response assembly — no HTTP.
func BenchmarkServeDo(b *testing.B) {
	s := benchServer(b, 1)
	req := benchRequest()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, code, err := s.Do(req); err != nil || code != 200 {
			b.Fatalf("do: code=%d err=%v", code, err)
		}
	}
}

// BenchmarkServeDoParallel drives the queue from GOMAXPROCS goroutines
// against two workers.
func BenchmarkServeDoParallel(b *testing.B) {
	s := benchServer(b, 2)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		req := benchRequest()
		for pb.Next() {
			if _, code, err := s.Do(req); err != nil || code != 200 {
				b.Fatalf("do: code=%d err=%v", code, err)
			}
		}
	})
}

// BenchmarkServeDoBacklog saturates one worker with 256 concurrent
// submitters: the worker never finds the queue empty, so passes fill from
// the backlog with no timer to wait for. Mean batch size is reported beside
// ns/op, which is saturation throughput inverted.
func BenchmarkServeDoBacklog(b *testing.B) {
	s := benchServer(b, 1)
	const submitters = 256
	before := s.Stats().Batches
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		n := b.N / submitters
		if g < b.N%submitters {
			n++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := benchRequest()
			for i := 0; i < n; i++ {
				if _, code, err := s.Do(req); err != nil || code != 200 {
					b.Errorf("do: code=%d err=%v", code, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	if passes := s.Stats().Batches - before; passes > 0 {
		b.ReportMetric(float64(b.N)/float64(passes), "reqs/pass")
	}
}

// BenchmarkServePredictHTTP adds the /predict edge: JSON decode, the
// serving path, and response encode — the cost a proxy or client sees
// minus the network.
func BenchmarkServePredictHTTP(b *testing.B) {
	s := benchServer(b, 1)
	body := []byte(`{"cf":[0,0.1,0.2,0.3,0.4,0.5,0.6,0.7],"window":[50,51,52,53,54,55,56,57,58,59,60,61,62,63,64,65],"testbed":"tb1","sut":"fw","testcase":"load","build":"B1"}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := httptest.NewRequest("POST", "/predict", bytes.NewReader(body))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		if w.Code != 200 {
			b.Fatalf("predict: status %d body %s", w.Code, w.Body.String())
		}
	}
}

// BenchmarkServePredictEncode isolates request marshalling: how much of
// the HTTP path is JSON, not model.
func BenchmarkServePredictEncode(b *testing.B) {
	req := benchRequest()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := json.Marshal(req)
		if err != nil || len(buf) == 0 {
			b.Fatalf("encode: %v", err)
		}
	}
}
