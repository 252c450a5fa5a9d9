package proxy

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"env2vec/internal/core"
	"env2vec/internal/dataset"
	"env2vec/internal/envmeta"
	"env2vec/internal/obs"
	"env2vec/internal/quality"
	"env2vec/internal/serve"
)

// e2eBackend hosts a real serve.Server (quality monitor on, every trace
// kept) behind httptest.
type e2eBackend struct {
	s   *serve.Server
	srv *httptest.Server
}

func newE2EBackend(t *testing.T, seed int64) *e2eBackend {
	t.Helper()
	return newSampledE2EBackend(t, seed, keepAllTraces())
}

// newSampledE2EBackend is newE2EBackend with its trace store sized by trace.
func newSampledE2EBackend(t *testing.T, seed int64, trace obs.TraceStoreConfig) *e2eBackend {
	t.Helper()
	cfg := core.Config{In: 3, Hidden: 8, GRUHidden: 4, EmbedDim: 3, Window: 2, Seed: seed}
	schema := envmeta.NewSchema()
	schema.Observe(envmeta.Environment{Testbed: "tb1", SUT: "fw", Testcase: "load", Build: "B1"})
	schema.Freeze()
	b := &serve.Bundle{
		Name: "test", Version: 1,
		Model:    core.New(cfg, schema),
		Schema:   schema,
		YScale:   dataset.YScaler{Mu: 50, Sigma: 10},
		Baseline: &quality.Baseline{Mu: 0, Sigma: 5, Samples: 100},
	}
	s := serve.New(serve.Config{
		MaxBatch: 8, QueueDepth: 256, Workers: 2,
		Quality: &quality.Config{}, Trace: trace,
	})
	t.Cleanup(s.Close)
	s.SetBundle(b)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return &e2eBackend{s: s, srv: srv}
}

// TestHeadSamplingAgreesAcrossHops: head sampling is a function of the
// trace id, so at rate 0.5 the proxy keeps a request's trace exactly when
// the backend that served it keeps its own, and neither keeps all or none.
func TestHeadSamplingAgreesAcrossHops(t *testing.T) {
	sampled := obs.TraceStoreConfig{Capacity: 512, SampleRate: 0.5, SlowMS: -1}
	backends := []*e2eBackend{newSampledE2EBackend(t, 7, sampled), newSampledE2EBackend(t, 11, sampled)}
	p := New(Config{Backends: []string{backends[0].srv.URL, backends[1].srv.URL}, Trace: sampled})
	defer p.Close()
	front := httptest.NewServer(p)
	defer front.Close()

	const requests = 200
	kept, served := 0, map[string]int{}
	for i := 0; i < requests; i++ {
		id := obs.NewRequestID()
		body := fmt.Sprintf(`{"cf":[1,2,3],"window":[50,51],"testbed":"tb1","sut":"fw","testcase":"load","build":"B%d"}`, i%8)
		req, err := http.NewRequest(http.MethodPost, front.URL+"/predict", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(obs.RequestIDHeader, id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		name := resp.Header.Get("X-Backend")
		served[name]++
		var be *e2eBackend
		for k, b := range p.backends {
			if b.name == name {
				be = backends[k]
			}
		}
		if be == nil {
			t.Fatalf("request %d served by unknown backend %q", i, name)
		}
		_, atProxy := p.traces.Get(id)
		rec := httptest.NewRecorder()
		be.s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/traces/"+id, nil))
		atBackend := rec.Code == http.StatusOK
		if atProxy != atBackend {
			t.Fatalf("request %s: the proxy kept its trace %v, the backend %s %v", id, atProxy, name, atBackend)
		}
		if atProxy {
			kept++
		}
	}
	if kept == 0 || kept == requests || len(served) != 2 {
		t.Fatalf("%d of %d traces kept at rate 0.5, backends served %v", kept, requests, served)
	}
}

// TestE2EStitchedTraceAcrossProcesses is the tracing acceptance test: one
// request through proxy → real e2vserve yields one trace at the proxy's
// GET /traces/{id} holding the proxy root, the forward attempt, and the
// backend's serve.request root with its three stage spans — every parent
// edge intact across the process boundary.
func TestE2EStitchedTraceAcrossProcesses(t *testing.T) {
	be := newE2EBackend(t, 3)
	p := New(Config{
		Backends: []string{be.srv.URL},
		Trace:    obs.TraceStoreConfig{Capacity: 16, SampleRate: 1},
	})
	defer p.Close()
	front := httptest.NewServer(p)
	defer front.Close()

	const reqID = "0123456789abcdef"
	req, _ := http.NewRequest(http.MethodPost, front.URL+"/predict",
		bytes.NewReader([]byte(`{"cf":[1,2,3],"window":[50,51],"testbed":"tb1","sut":"fw","testcase":"load","build":"B1"}`)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: status %d", resp.StatusCode)
	}

	tResp, err := http.Get(front.URL + "/traces/" + reqID)
	if err != nil {
		t.Fatal(err)
	}
	defer tResp.Body.Close()
	if tResp.StatusCode != http.StatusOK {
		t.Fatalf("GET /traces/%s: status %d", reqID, tResp.StatusCode)
	}
	var tr obs.Trace
	if err := json.NewDecoder(tResp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	byName := map[string]obs.Span{}
	for _, sp := range tr.Spans {
		if sp.TraceID != reqID {
			t.Fatalf("span %s carries trace id %q, want %q", sp.Name, sp.TraceID, reqID)
		}
		byName[sp.Name] = sp
	}
	root, att, srvRoot := byName["proxy.request"], byName["proxy.attempt"], byName["serve.request"]
	if root.SpanID == "" || att.ParentID != root.SpanID {
		t.Fatalf("proxy tree broken: root=%+v attempt=%+v", root, att)
	}
	if srvRoot.ParentID != att.SpanID {
		t.Fatalf("backend root parents onto %q, want the attempt span %q", srvRoot.ParentID, att.SpanID)
	}
	for _, stage := range []string{"serve.queue_wait", "serve.forward", "serve.encode"} {
		sp, ok := byName[stage]
		if !ok {
			t.Fatalf("stitched trace missing stage span %s: %+v", stage, tr.Spans)
		}
		if sp.ParentID != srvRoot.SpanID {
			t.Fatalf("%s parents onto %q, want serve.request %q", stage, sp.ParentID, srvRoot.SpanID)
		}
	}
}

// TestE2EKillBackendFailover is the fleet acceptance test: two real
// e2vserve backends behind the proxy, one killed mid-load. Every client
// request must still succeed within the retry budget, every environment
// must re-home onto the survivor deterministically, and the fleet /quality
// and /metrics views must reflect the surviving pool.
func TestE2EKillBackendFailover(t *testing.T) {
	b0, b1 := newE2EBackend(t, 7), newE2EBackend(t, 11)
	p := New(Config{
		Backends:     []string{b0.srv.URL, b1.srv.URL},
		FailAfter:    1, // a transport error drops the backend immediately
		RiseAfter:    1,
		LoadFactor:   1, // disable bounded-load spill: this test asserts strict affinity
		RetryBackoff: time.Millisecond,
		Timeout:      5 * time.Second,
		// Head sampling off, small capacity: only tail-remarkable traces
		// (failed, shed, retried, slow) may be retained, and the kill below
		// must not balloon the store past its bound.
		Trace: obs.TraceStoreConfig{Capacity: 32, SampleRate: -1},
	})
	defer p.Close()
	front := httptest.NewServer(p)
	defer front.Close()
	client := &http.Client{Timeout: 5 * time.Second}

	const (
		workers  = 4
		builds   = 8
		perPhase = 25 // requests per worker before and after the kill
	)
	type result struct {
		status  int
		build   string
		backend string
		body    string
	}

	runPhase := func(phase string) []result {
		var mu sync.Mutex
		var results []result
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)*31 + 1))
				for i := 0; i < perPhase; i++ {
					build := fmt.Sprintf("B%d", i%builds)
					body := fmt.Sprintf(`{"cf":[%f,%f,%f],"window":[50,51],"testbed":"tb1","sut":"fw","testcase":"load","build":%q,"actual":%f}`,
						rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), build, 50+rng.NormFloat64())
					resp, err := client.Post(front.URL+"/predict", "application/json", bytes.NewReader([]byte(body)))
					if err != nil {
						mu.Lock()
						results = append(results, result{status: -1, build: build, body: err.Error()})
						mu.Unlock()
						continue
					}
					var buf bytes.Buffer
					_, _ = buf.ReadFrom(resp.Body)
					resp.Body.Close()
					mu.Lock()
					results = append(results, result{
						status: resp.StatusCode, build: build,
						backend: resp.Header.Get("X-Backend"), body: buf.String(),
					})
					mu.Unlock()
				}
			}(g)
		}
		wg.Wait()
		for _, r := range results {
			if r.status != http.StatusOK {
				t.Fatalf("%s phase: request for %s got status %d (%s) — client saw a routing error",
					phase, r.build, r.status, r.body)
			}
			if r.backend == "" {
				t.Fatalf("%s phase: response missing X-Backend", phase)
			}
		}
		return results
	}

	// Phase 1: healthy pool. Affinity must be total — one home per build.
	pre := runPhase("healthy")
	homes := map[string]string{}
	for _, r := range pre {
		if prev, ok := homes[r.build]; ok && prev != r.backend {
			t.Fatalf("healthy phase: build %s served by both %s and %s", r.build, prev, r.backend)
		}
		homes[r.build] = r.backend
	}
	distinct := map[string]bool{}
	for _, h := range homes {
		distinct[h] = true
	}
	if len(distinct) != 2 {
		t.Fatalf("healthy phase: %d builds all homed on one backend — ring not spreading", builds)
	}

	// Kill backend 0 mid-fleet. In-flight requests may see the connection
	// die; the proxy's retry budget must absorb every one of them.
	b0.srv.Close()
	survivor := backendName(b1.srv.URL)

	// Phase 2: every request must land on the survivor, zero client errors.
	post := runPhase("post-kill")
	for _, r := range post {
		if r.backend != survivor {
			t.Fatalf("post-kill: build %s served by %q, want survivor %q", r.build, r.backend, survivor)
		}
	}
	if !p.backends[1].Alive() {
		t.Fatal("survivor marked dead")
	}
	if p.backends[0].Alive() {
		t.Fatal("killed backend still marked alive after failed forwards")
	}
	// Re-homing is stable: replaying any build hits the same survivor.
	for i := 0; i < builds; i++ {
		key := envKey(fmt.Sprintf("B%d", i))
		got := ""
		p.ring.walk(key, func(b *Backend) bool {
			if !b.Alive() {
				return true
			}
			got = b.name
			return false
		})
		if got != survivor {
			t.Fatalf("build B%d re-homed to %q, want %q", i, got, survivor)
		}
	}

	// The kill leaves its mark in the trace store: at least one retained
	// trace carries the failed attempt against the dead backend and the
	// failover attempt that served it, stitched to the survivor's own
	// stage spans — and the store stays within its capacity bound.
	ts := p.traces
	if got := ts.Len(); got > 32 {
		t.Fatalf("trace store holds %d traces, capacity is 32", got)
	}
	sums := ts.List(0, "", 0)
	if len(sums) == 0 {
		t.Fatal("no traces retained despite a backend killed mid-load")
	}
	var sawFailover bool
	for _, sum := range sums {
		tr, ok := ts.Get(sum.TraceID)
		if !ok {
			continue // evicted between List and Get
		}
		if tr.Outcome == obs.OutcomeServed && !tr.Retried && tr.DurationMS < 250 {
			t.Fatalf("unremarkable trace retained with head sampling off: %+v", sum)
		}
		if !tr.Retried {
			continue
		}
		var failed, failover, stitched bool
		for _, sp := range tr.Spans {
			switch {
			case sp.Name == "proxy.attempt" && sp.Attrs["outcome"] == "failed":
				failed = true
			case sp.Name == "proxy.attempt" && sp.Attrs["outcome"] == "failover":
				failover = true
			case sp.Name == "serve.request":
				stitched = true
			}
		}
		if failed && failover {
			if !stitched {
				t.Fatalf("failover trace %s missing the survivor's stitched spans: %+v", tr.TraceID, tr.Spans)
			}
			sawFailover = true
		}
	}
	if !sawFailover {
		t.Fatal("no retained trace shows a failed attempt followed by a failover attempt")
	}

	// Fleet /quality reflects the surviving pool and carries the drift
	// state fed by the ground-truth actuals above.
	resp, err := client.Get(front.URL + "/quality")
	if err != nil {
		t.Fatalf("fleet quality: %v", err)
	}
	var fq FleetQuality
	err = json.NewDecoder(resp.Body).Decode(&fq)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("fleet quality decode: %v", err)
	}
	if len(fq.Backends) != 1 || fq.Backends[0].Backend != survivor {
		t.Fatalf("fleet quality backends = %+v, want only survivor %s", fq.Backends, survivor)
	}
	if fq.Totals.Observations == 0 {
		t.Fatal("fleet quality shows zero observations despite ground-truth-bearing load")
	}
	if len(fq.Environments) == 0 {
		t.Fatal("fleet quality union is empty")
	}
	for _, es := range fq.Environments {
		if es.Backend != survivor {
			t.Fatalf("environment %s attributed to %q, want survivor %q", es.Env, es.Backend, survivor)
		}
	}

	// Fleet /metrics merges only the survivor's exposition.
	resp, err = client.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatalf("fleet metrics: %v", err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	page := buf.String()
	if !bytes.Contains(buf.Bytes(), []byte(fmt.Sprintf("backend=%q", survivor))) {
		t.Fatalf("fleet metrics missing survivor's labelled series:\n%.2000s", page)
	}
	if !bytes.Contains(buf.Bytes(), []byte("env2vec_proxy_failovers_total")) {
		t.Fatal("fleet metrics missing the proxy's failover counter")
	}
}
