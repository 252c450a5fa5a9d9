package proxy

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"env2vec/internal/obs"
)

// keepAllTraces is the store config trace tests run with, so assertions
// never depend on which ids head sampling keeps.
func keepAllTraces() obs.TraceStoreConfig {
	return obs.TraceStoreConfig{Capacity: 64, SampleRate: 1}
}

// newEchoBackend fakes an e2vserve that honours the tracing contract: it
// parses the inbound traceparent header and answers /predict with a trace
// block whose span parents onto the caller's attempt span — exactly what
// the proxy must stitch.
func newEchoBackend(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ready") })
	mux.HandleFunc("/predict", func(w http.ResponseWriter, r *http.Request) {
		traceID, parent, _ := obs.ParseTraceParent(r.Header.Get(obs.TraceParentHeader))
		sp := obs.Span{TraceID: traceID, SpanID: obs.NewSpanID(), ParentID: parent, Name: "serve.request", DurationMS: 1}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"prediction": 42,
			"trace":      map[string]any{"spans": []obs.Span{sp}},
		})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// spansByName indexes a stored trace's spans; duplicate names keep the
// later span, which trace assertions here never rely on.
func spansByName(tr obs.Trace) map[string]obs.Span {
	m := map[string]obs.Span{}
	for _, sp := range tr.Spans {
		m[sp.Name] = sp
	}
	return m
}

// TestProxyTraceStitchesBackendSpans is the cross-process tentpole
// assertion at unit scope: one proxied request yields one stored trace
// holding the proxy root, the forward attempt, and the backend's span
// parented onto that attempt via the traceparent header.
func TestProxyTraceStitchesBackendSpans(t *testing.T) {
	be := newEchoBackend(t)
	p := New(Config{Backends: []string{be.URL}, Trace: keepAllTraces(), RetryBackoff: time.Microsecond})
	t.Cleanup(p.Close)

	const reqID = "feedface00000001"
	w := doPredict(t, p, "B1", map[string]string{obs.RequestIDHeader: reqID})
	if w.Code != http.StatusOK {
		t.Fatalf("predict: status %d: %s", w.Code, w.Body.String())
	}
	tr, ok := p.traces.Get(reqID)
	if !ok {
		t.Fatal("proxied request left no trace in the store")
	}
	if tr.Outcome != obs.OutcomeServed || tr.Retried {
		t.Fatalf("trace outcome=%q retried=%v, want served, un-retried", tr.Outcome, tr.Retried)
	}
	byName := spansByName(tr)
	root, ok := byName["proxy.request"]
	if !ok || root.ParentID != "" {
		t.Fatalf("missing or non-root proxy.request span: %+v", tr.Spans)
	}
	att, ok := byName["proxy.attempt"]
	if !ok {
		t.Fatalf("no proxy.attempt span: %+v", tr.Spans)
	}
	if att.ParentID != root.SpanID {
		t.Fatalf("attempt parent = %q, want root %q", att.ParentID, root.SpanID)
	}
	if att.Attrs["backend"] == "" || att.Attrs["attempt"] != "1" || att.Attrs["outcome"] != "served" {
		t.Fatalf("attempt attrs incomplete: %+v", att.Attrs)
	}
	stitched, ok := byName["serve.request"]
	if !ok {
		t.Fatalf("backend span not stitched into the trace: %+v", tr.Spans)
	}
	if stitched.TraceID != reqID || stitched.ParentID != att.SpanID {
		t.Fatalf("stitched span trace=%q parent=%q, want trace %q parented on attempt %q",
			stitched.TraceID, stitched.ParentID, reqID, att.SpanID)
	}

	// And the tree is retrievable over HTTP on the proxy itself.
	hw := httptest.NewRecorder()
	p.ServeHTTP(hw, httptest.NewRequest(http.MethodGet, "/traces/"+reqID, nil))
	if hw.Code != http.StatusOK {
		t.Fatalf("GET /traces/{id}: status %d", hw.Code)
	}
	var fetched obs.Trace
	if err := json.NewDecoder(hw.Body).Decode(&fetched); err != nil || len(fetched.Spans) != len(tr.Spans) {
		t.Fatalf("fetched trace = %+v, err %v", fetched, err)
	}
}

// TestProxyKeepsOversizedJSONTrace: the wire's span-section limits bound
// what a peer may send, not what a kept trace may hold. A JSON request whose
// id is 70 KiB, and one served by a backend that answers with more spans,
// more attributes on one span and a longer attribute value than a wire reply
// may carry, are each served whole from GET /traces/{id} and listed with
// every span counted.
func TestProxyKeepsOversizedJSONTrace(t *testing.T) {
	long := strings.Repeat("v", 70<<10)
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ready") })
	mux.HandleFunc("/predict", func(w http.ResponseWriter, r *http.Request) {
		traceID, parent, _ := obs.ParseTraceParent(r.Header.Get(obs.TraceParentHeader))
		n := 1
		if traceID == "many" {
			n = obs.MaxSectionSpans + 1
		}
		spans := make([]obs.Span, n)
		for i := range spans {
			spans[i] = obs.Span{TraceID: traceID, SpanID: fmt.Sprintf("s%d", i), ParentID: parent, Name: "serve.request", DurationMS: 1}
		}
		if n > 1 {
			for i := 0; i <= obs.MaxSpanAttrs; i++ {
				spans[0].SetAttr(fmt.Sprintf("k%03d", i), "v")
			}
			spans[1].SetAttr("long", long)
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{"prediction": 42, "trace": map[string]any{"spans": spans}})
	})
	be := httptest.NewServer(mux)
	t.Cleanup(be.Close)
	p := New(Config{Backends: []string{be.URL}, Trace: keepAllTraces(), RetryBackoff: time.Microsecond})
	t.Cleanup(p.Close)

	for _, tc := range []struct {
		id      string
		backend int
	}{{strings.Repeat("a", 70<<10), 1}, {"many", obs.MaxSectionSpans + 1}} {
		if w := doPredict(t, p, "B1", map[string]string{obs.RequestIDHeader: tc.id}); w.Code != http.StatusOK {
			t.Fatalf("predict: status %d: %s", w.Code, w.Body.String())
		}
		hw := httptest.NewRecorder()
		p.ServeHTTP(hw, httptest.NewRequest(http.MethodGet, "/traces/"+tc.id, nil))
		var tr obs.Trace
		if err := json.NewDecoder(hw.Body).Decode(&tr); err != nil || hw.Code != http.StatusOK {
			t.Fatalf("GET /traces/{id}: status %d, err %v", hw.Code, err)
		}
		want := 2 + tc.backend // root, attempt, the backend's
		if len(tr.Spans) != want || tr.TraceID != tc.id || tr.Spans[2].TraceID != tc.id {
			t.Fatalf("a kept trace of a %d-byte id serves %d spans, want %d", len(tc.id), len(tr.Spans), want)
		}
		if tc.backend > 1 && (len(tr.Spans[2].Attrs) != obs.MaxSpanAttrs+1 || tr.Spans[3].Attrs["long"] != long) {
			t.Fatalf("the backend's spans came back with %d attributes and a value of %d bytes",
				len(tr.Spans[2].Attrs), len(tr.Spans[3].Attrs["long"]))
		}
		listed := -1
		for _, l := range p.traces.List(0, "", 0) {
			if l.TraceID == tc.id {
				listed = l.Spans
			}
		}
		if listed != want {
			t.Fatalf("GET /traces counts %d spans in a trace of %d (-1: not listed)", listed, want)
		}
	}
}

// TestProxyFailoverTraceSpans: a refused home plus a serving survivor
// leaves a retried trace with one span per attempt — the first marked
// refused, the second marked failover with its backoff wait recorded.
func TestProxyFailoverTraceSpans(t *testing.T) {
	a, b := newStub(t), newStub(t)
	p := newTestProxy(t, Config{Trace: keepAllTraces()}, a, b)
	a.mu.Lock()
	a.refuse = 1 // home 503s once; the survivor serves
	a.mu.Unlock()

	var build string
	for i := 0; ; i++ {
		build = fmt.Sprintf("B%d", i)
		if p.home(envKey(build)) == p.backends[0] {
			break
		}
	}
	const reqID = "deadbeef00000002"
	w := doPredict(t, p, build, map[string]string{obs.RequestIDHeader: reqID})
	if w.Code != http.StatusOK {
		t.Fatalf("failover predict: status %d", w.Code)
	}
	tr, ok := p.traces.Get(reqID)
	if !ok {
		t.Fatal("failover request left no trace")
	}
	if tr.Outcome != obs.OutcomeServed || !tr.Retried {
		t.Fatalf("trace outcome=%q retried=%v, want served + retried", tr.Outcome, tr.Retried)
	}
	var attempts []obs.Span
	for _, sp := range tr.Spans {
		if sp.Name == "proxy.attempt" {
			attempts = append(attempts, sp)
		}
	}
	if len(attempts) != 2 {
		t.Fatalf("got %d attempt spans, want 2: %+v", len(attempts), tr.Spans)
	}
	first, second := attempts[0], attempts[1]
	if first.Attrs["outcome"] != "refused" || first.Attrs["status"] != "503" {
		t.Fatalf("first attempt attrs: %+v, want refused/503", first.Attrs)
	}
	if second.Attrs["outcome"] != "failover" || second.Attrs["attempt"] != "2" || second.Attrs["backoff_wait_ms"] == "" {
		t.Fatalf("second attempt attrs: %+v, want failover, attempt=2, backoff_wait_ms set", second.Attrs)
	}
}

// TestProxyShedTraceRetained: an admission-shed request must still leave
// a (root-only) trace — the tail the sampler never drops.
func TestProxyShedTraceRetained(t *testing.T) {
	a := newStub(t)
	a.mu.Lock()
	a.delay = 300 * time.Millisecond
	a.mu.Unlock()
	p := newTestProxy(t, Config{MaxInflight: 1, Trace: keepAllTraces()}, a)

	started := make(chan struct{})
	go func() {
		close(started)
		doPredict(t, p, "B1", nil)
	}()
	<-started
	deadline := time.Now().Add(2 * time.Second)
	for p.totalInflight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never went in flight")
		}
		time.Sleep(time.Millisecond)
	}
	const reqID = "cafebabe00000003"
	w := doPredict(t, p, "B1", map[string]string{obs.RequestIDHeader: reqID})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", w.Code)
	}
	tr, ok := p.traces.Get(reqID)
	if !ok {
		t.Fatal("shed request left no trace")
	}
	if tr.Outcome != obs.OutcomeShed {
		t.Fatalf("trace outcome = %q, want shed", tr.Outcome)
	}
	if len(tr.Spans) != 1 || tr.Spans[0].Attrs["error"] == "" {
		t.Fatalf("shed trace should be root-only with an error attr: %+v", tr.Spans)
	}
}

// TestProxySelfLatencyMetrics: the satellite histograms land on /metrics
// with their outcome labels, alongside the trace store's counters.
func TestProxySelfLatencyMetrics(t *testing.T) {
	a := newStub(t)
	p := newTestProxy(t, Config{Trace: keepAllTraces()}, a)
	doPredict(t, p, "B1", nil)

	w := httptest.NewRecorder()
	p.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := w.Body.String()
	for _, want := range []string{
		`env2vec_proxy_request_latency_ms_count{outcome="served"} 1`,
		`env2vec_proxy_attempt_latency_ms_count{outcome="ok"} 1`,
		`env2vec_proxy_backoff_wait_ms_count 0`,
		`env2vec_trace_completed_total 1`,
		`env2vec_trace_stored 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
}
