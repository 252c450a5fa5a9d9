package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"env2vec/internal/obs"
)

// traceTestServer hosts a server whose trace store keeps everything, so
// assertions don't depend on which ids head sampling keeps.
func traceTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Trace = obs.TraceStoreConfig{Capacity: 64, SampleRate: 1}
	s := New(cfg)
	t.Cleanup(s.Close)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return s, srv
}

// TestPredictSpansParentOntoTraceparent is the serve-side half of the
// cross-process story: a request arriving with a traceparent header must
// come back with a span tree whose root parents onto the caller's span,
// with the three stage timings recast as children — and the same tree must
// be retrievable from GET /traces/{id}.
func TestPredictSpansParentOntoTraceparent(t *testing.T) {
	s, srv := traceTestServer(t, Config{MaxBatch: 4, QueueDepth: 16, Workers: 1})
	s.SetBundle(testBundle(1, 1))

	const reqID, callerSpan = "feedcafe00000001", "aabbccdd00000001"
	body := `{"cf":[0.1,0.2,0.3],"window":[50,51],"testbed":"tb1","sut":"fw","testcase":"tc","build":"B1"}`
	httpReq, _ := http.NewRequest(http.MethodPost, srv.URL+"/predict", bytes.NewReader([]byte(body)))
	httpReq.Header.Set("Content-Type", "application/json")
	httpReq.Header.Set(obs.RequestIDHeader, reqID)
	httpReq.Header.Set(obs.TraceParentHeader, obs.FormatTraceParent(reqID, callerSpan))
	httpResp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("predict: status %d", httpResp.StatusCode)
	}
	var resp jsonReply
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil {
		t.Fatal("response has no trace block")
	}
	if resp.Trace.RequestID != reqID {
		t.Fatalf("trace block id %q, want %q", resp.Trace.RequestID, reqID)
	}
	spans := resp.Trace.Spans
	byName := map[string]obs.Span{}
	for _, sp := range spans {
		if sp.TraceID != reqID {
			t.Fatalf("span %s has trace id %q, want %q", sp.Name, sp.TraceID, reqID)
		}
		byName[sp.Name] = sp
	}
	root, ok := byName["serve.request"]
	if !ok {
		t.Fatalf("no serve.request root span in %v", spans)
	}
	if root.ParentID != callerSpan {
		t.Fatalf("root parent = %q, want the caller's span %q", root.ParentID, callerSpan)
	}
	for _, stage := range []string{"serve.queue_wait", "serve.forward", "serve.encode"} {
		sp, ok := byName[stage]
		if !ok {
			t.Fatalf("missing stage span %s in %v", stage, spans)
		}
		if sp.ParentID != root.SpanID {
			t.Fatalf("%s parent = %q, want root %q", stage, sp.ParentID, root.SpanID)
		}
	}
	if byName["serve.forward"].Attrs["batch_size"] == "" {
		t.Fatal("forward span missing batch_size attr")
	}

	// The completed tree is retrievable after the response was read.
	stored, ok := s.traces.Get(reqID)
	if !ok {
		t.Fatal("trace not retained in the store")
	}
	if stored.Outcome != obs.OutcomeServed || len(stored.Spans) != len(spans) {
		t.Fatalf("stored trace = outcome %q, %d spans; want served, %d", stored.Outcome, len(stored.Spans), len(spans))
	}
	httpGet, err := http.Get(srv.URL + "/traces/" + reqID)
	if err != nil {
		t.Fatal(err)
	}
	var fetched obs.Trace
	err = json.NewDecoder(httpGet.Body).Decode(&fetched)
	httpGet.Body.Close()
	if err != nil || fetched.TraceID != reqID || fetched.Root != "serve.request" {
		t.Fatalf("GET /traces/{id} = %+v, err %v", fetched, err)
	}
}

// TestShedRequestTraceRetained: a 429 at admission leaves a root-only shed
// trace in the store — the tail the sampler must never drop.
func TestShedRequestTraceRetained(t *testing.T) {
	stall := make(chan struct{})
	s, srv := traceTestServer(t, Config{MaxBatch: 1, QueueDepth: 1, Workers: 1, stall: stall})
	defer close(stall)
	s.SetBundle(testBundle(1, 1))

	body := `{"cf":[0.1,0.2,0.3],"window":[50,51],"testbed":"tb1","sut":"fw","testcase":"tc","build":"B1"}`
	post := func(id string) int {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/predict", bytes.NewReader([]byte(body)))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(obs.RequestIDHeader, id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return -1 // goroutines can outlive the test body; no t.Fatal here
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// With the worker stalled, hammer until one request sheds. The stalled
	// ones complete only after close(stall), so fire them from goroutines.
	codes := make(chan int, 64)
	ids := make(chan string, 64)
	for i := 0; i < 64; i++ {
		go func(i int) {
			id := obs.NewRequestID()
			code := post(id)
			codes <- code
			if code == http.StatusTooManyRequests {
				ids <- id
			}
		}(i)
	}
	var shedID string
	deadline := time.After(30 * time.Second)
	for shedID == "" {
		select {
		case id := <-ids:
			shedID = id
		case <-deadline:
			t.Fatal("no request shed despite a stalled worker")
		}
	}
	tr, ok := s.traces.Get(shedID)
	if !ok {
		t.Fatalf("shed request %s has no trace in the store", shedID)
	}
	if tr.Outcome != obs.OutcomeShed {
		t.Fatalf("shed trace outcome = %q, want shed", tr.Outcome)
	}
	if len(tr.Spans) == 0 || tr.Spans[0].Attrs["error"] == "" {
		t.Fatalf("shed trace should carry a root span with the error attr: %+v", tr.Spans)
	}
}
