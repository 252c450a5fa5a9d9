package pipeline

import (
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"env2vec/internal/dataset"
	"env2vec/internal/modelserver"
	"env2vec/internal/nn"
	"env2vec/internal/serve"
)

// TestPublishThenServe is the end-to-end exercise of the online prediction
// path: train → publish a snapshot (with serving artifacts) to the registry
// → a watcher delivers it to the serving daemon → concurrent request
// traffic is micro-batched, matches the offline model exactly, survives a
// hot re-publish, and sheds overload with 429 instead of hanging.
func TestPublishThenServe(t *testing.T) {
	corpus := smallCorpus(t)
	tr, err := Train(corpus.Dataset, nil, quickTrainerConfig())
	if err != nil {
		t.Fatal(err)
	}

	// Registry + publish with artifacts attached.
	reg := modelserver.NewRegistry()
	regSrv := httptest.NewServer(&modelserver.Handler{Registry: reg})
	defer regSrv.Close()
	client := &modelserver.Client{BaseURL: regSrv.URL}
	if v, err := PublishForServing(client, "env2vec", tr); err != nil || v != 1 {
		t.Fatalf("publish: %d %v", v, err)
	}

	// Serving daemon fed by a registry watcher.
	srv := serve.New(serve.Config{MaxBatch: 16, QueueDepth: 512, Workers: 2})
	defer srv.Close()
	watcher := &modelserver.Watcher{
		Client: client,
		Name:   "env2vec",
		OnUpdate: func(snap *nn.Snapshot, ver int) {
			b, err := serve.BundleFromSnapshot("env2vec", ver, snap)
			if err != nil {
				t.Errorf("bundle from snapshot v%d: %v", ver, err)
				return
			}
			srv.SetBundle(b)
		},
	}
	if changed, err := watcher.Poll(); err != nil || !changed {
		t.Fatalf("initial poll: changed=%v err=%v", changed, err)
	}
	if srv.Bundle() == nil || srv.Bundle().Version != 1 {
		t.Fatalf("v1 not loaded")
	}

	// Assemble ≥64 requests from real execution windows, with the offline
	// reference prediction computed through the training artifacts.
	window := tr.Model.Config().Window
	var exs []dataset.Example
	for _, s := range corpus.Dataset.Series {
		exs = append(exs, dataset.WindowExamples(s, window)...)
		if len(exs) >= 64 {
			break
		}
	}
	exs = exs[:64]
	batch := dataset.ToBatch(exs, tr.Schema)
	tr.Standardizer.Apply(batch.X)
	want := tr.YScale.Unscale(tr.Model.Predict(tr.YScale.Scale(batch)))

	makeReq := func(ex dataset.Example) *serve.Request {
		return &serve.Request{
			CF:      append([]float64(nil), ex.CF...),
			Window:  append([]float64(nil), ex.Window...),
			Testbed: ex.Env.Testbed, SUT: ex.Env.SUT,
			Testcase: ex.Env.Testcase, Build: ex.Env.Build,
		}
	}

	// (a): concurrent traffic matches the offline model within 1e-9.
	var wg sync.WaitGroup
	for i := range exs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, code, err := srv.Do(makeReq(exs[i]))
			if err != nil || code != http.StatusOK {
				t.Errorf("request %d: %d %v", i, code, err)
				return
			}
			if math.Abs(resp.Prediction-want[i]) > 1e-9 {
				t.Errorf("request %d: served %v, offline %v", i, resp.Prediction, want[i])
			}
			if resp.ModelVersion != 1 {
				t.Errorf("request %d: version %d", i, resp.ModelVersion)
			}
		}(i)
	}
	wg.Wait()

	// (b): a frame of MaxBatch requests is one forward pass, and batching
	// does not change the numbers.
	frame := make([]*serve.Request, 16)
	for i := range frame {
		frame[i] = makeReq(exs[i])
	}
	for i, r := range srv.DoBatch(frame) {
		if r.Err != nil || r.Resp.BatchSize != len(frame) {
			t.Fatalf("frame request %d: served in a pass of %+v (%v), want %d", i, r.Resp, r.Err, len(frame))
		}
		if math.Abs(r.Resp.Prediction-want[i]) > 1e-9 {
			t.Errorf("frame request %d: served %v, offline %v", i, r.Resp.Prediction, want[i])
		}
	}

	// (c): a registry re-publish reaches serving without dropping requests.
	stop := make(chan struct{})
	var traffic sync.WaitGroup
	for g := 0; g < 4; g++ {
		traffic.Add(1)
		go func(g int) {
			defer traffic.Done()
			for i := 0; ; i = (i + 1) % len(exs) {
				select {
				case <-stop:
					return
				default:
				}
				resp, code, err := srv.Do(makeReq(exs[i]))
				if err != nil || code != http.StatusOK {
					t.Errorf("request dropped during reload: %d %v", code, err)
					return
				}
				// Weights are identical across versions here, so every
				// response must stay correct regardless of which version
				// served it.
				if math.Abs(resp.Prediction-want[i]) > 1e-9 {
					t.Errorf("prediction drifted during reload")
					return
				}
			}
		}(g)
	}
	if v, err := PublishForServing(client, "env2vec", tr); err != nil || v != 2 {
		t.Fatalf("republish: %d %v", v, err)
	}
	if changed, err := watcher.Poll(); err != nil || !changed {
		t.Fatalf("reload poll: changed=%v err=%v", changed, err)
	}
	close(stop)
	traffic.Wait()
	resp, code, err := srv.Do(makeReq(exs[0]))
	if err != nil || code != http.StatusOK || resp.ModelVersion != 2 {
		t.Fatalf("v2 not serving after republish: %+v %d %v", resp, code, err)
	}

	// (d): a frame beyond the queue bound keeps its head and sheds its
	// tail with 429.
	tiny := serve.New(serve.Config{MaxBatch: 16, QueueDepth: 2, Workers: 1})
	defer tiny.Close()
	tiny.SetBundle(srv.Bundle())
	var ok, rejected int
	for i, r := range tiny.DoBatch(frame) {
		switch r.Code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Fatalf("request %d: unexpected status %d under overload", i, r.Code)
		}
	}
	if ok != 2 || rejected != len(frame)-2 {
		t.Fatalf("overload handling wrong: %d ok, %d rejected of %d with room for 2", ok, rejected, len(frame))
	}
}
