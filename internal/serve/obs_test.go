package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"env2vec/internal/obs"
	"env2vec/internal/tsdb"
)

// postPredict runs one /predict round trip, optionally with an inbound
// X-Request-Id header, and returns the response and decoded body.
func postPredict(t *testing.T, url string, req *Request, requestID string) (*http.Response, jsonReply) {
	t.Helper()
	body, _ := json.Marshal(req)
	hreq, err := http.NewRequest(http.MethodPost, url+"/predict", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if requestID != "" {
		hreq.Header.Set(obs.RequestIDHeader, requestID)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out jsonReply
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestRequestIDPropagation(t *testing.T) {
	s := New(Config{MaxBatch: 2, QueueDepth: 8, Workers: 1})
	defer s.Close()
	s.SetBundle(testBundle(1, 1))
	srv := httptest.NewServer(s)
	defer srv.Close()
	rng := rand.New(rand.NewSource(7))

	// Inbound X-Request-Id is echoed in both the response header and the
	// trace block.
	resp, out := postPredict(t, srv.URL, randomRequest(rng), "trace-me-42")
	if got := resp.Header.Get(obs.RequestIDHeader); got != "trace-me-42" {
		t.Fatalf("response header id %q, want trace-me-42", got)
	}
	if out.Trace == nil || out.Trace.RequestID != "trace-me-42" {
		t.Fatalf("trace block id wrong: %+v", out.Trace)
	}

	// Absent an inbound id, one is generated and still echoed consistently.
	resp, out = postPredict(t, srv.URL, randomRequest(rng), "")
	hdr := resp.Header.Get(obs.RequestIDHeader)
	if len(hdr) != 16 {
		t.Fatalf("generated id %q, want 16 hex chars", hdr)
	}
	if out.Trace == nil || out.Trace.RequestID != hdr {
		t.Fatalf("trace id %v does not match header %q", out.Trace, hdr)
	}

	// The block's spans time every stage, the JSON encode included.
	if sp := out.Trace.Spans; len(sp) != 4 || sp[0].DurationMS <= 0 || sp[2].DurationMS <= 0 || sp[3].DurationMS <= 0 {
		t.Fatalf("trace durations not populated: %+v", out.Trace)
	}

	// The non-HTTP path generates ids too.
	req := randomRequest(rng)
	r2, _, err := s.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if tr := recordTree(&r2.Record, req.RequestID, req.TraceParent); len(req.RequestID) != 16 || tr.RequestID != req.RequestID || tr.Spans[0].TraceID != req.RequestID {
		t.Fatalf("Do path id mismatch: req=%q trace=%+v", req.RequestID, tr)
	}
}

// TestSlowForwardAttribution is the acceptance scenario: when the forward
// pass is the slow stage, the delay must land in the forward-pass histogram
// (and the trace block's forward span), not in queue-wait.
func TestSlowForwardAttribution(t *testing.T) {
	stall := make(chan struct{})
	s := New(Config{MaxBatch: 1, QueueDepth: 8, Workers: 1, stall: stall})
	defer s.Close()
	s.SetBundle(testBundle(1, 1))

	rng := rand.New(rand.NewSource(13))
	req := randomRequest(rng)
	type result struct {
		resp *Response
		err  error
	}
	resc := make(chan result, 1)
	go func() {
		resp, _, err := s.Do(req)
		resc <- result{resp, err}
	}()
	time.Sleep(60 * time.Millisecond) // hold the worker: simulated slow forward
	close(stall)
	res := <-resc
	if res.err != nil {
		t.Fatal(res.err)
	}

	tr := recordTree(&res.resp.Record, req.RequestID, req.TraceParent)
	queue, fwd := tr.Spans[1], tr.Spans[2]
	if fwd.Name != "serve.forward" || fwd.DurationMS < 40 {
		t.Fatalf("slow forward not attributed to the forward span: %+v", tr)
	}
	if queue.Name != "serve.queue_wait" || queue.DurationMS > 20 {
		t.Fatalf("idle queue charged with the delay: %+v", tr)
	}

	st := s.Stats()
	if st.ForwardP99MS < 40 {
		t.Fatalf("forward p99 %.2fms, want >= 40 (stats: %+v)", st.ForwardP99MS, st)
	}
	if st.QueueWaitP99MS > 20 {
		t.Fatalf("queue-wait p99 %.2fms should stay small (stats: %+v)", st.QueueWaitP99MS, st)
	}
	if st.P99LatencyMS < st.ForwardP99MS {
		t.Fatalf("total p99 %.2f < forward p99 %.2f", st.P99LatencyMS, st.ForwardP99MS)
	}
}

// TestMetricsEndpoint asserts GET /metrics is valid Prometheus text
// exposition (parsed by our own tsdb parser, the same code path a scraper
// would use) and carries the per-stage latency histograms.
func TestMetricsEndpoint(t *testing.T) {
	s := New(Config{MaxBatch: 4, QueueDepth: 16, Workers: 1})
	defer s.Close()
	s.SetBundle(testBundle(1, 1))
	srv := httptest.NewServer(s)
	defer srv.Close()

	rng := rand.New(rand.NewSource(21))
	const n = 5
	for i := 0; i < n; i++ {
		if _, _, err := s.Do(randomRequest(rng)); err != nil {
			t.Fatal(err)
		}
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
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	// Served traffic leaves request-id exemplars on the latency buckets,
	// and the page must still parse as exposition text with them present.
	if !strings.Contains(string(page), `# {request_id="`) {
		t.Fatalf("no exemplar suffix on the metrics page:\n%s", page)
	}
	series, err := tsdb.ParseExposition(bytes.NewReader(page), 0)
	if err != nil {
		t.Fatalf("metrics page is not valid exposition format: %v", err)
	}
	byKey := map[string]float64{}
	for _, sr := range series {
		key := sr.Labels["__name__"]
		if st := sr.Labels["stage"]; st != "" {
			key += "/" + st
		}
		if out := sr.Labels["outcome"]; out != "" {
			key += "/" + out
		}
		byKey[key] = sr.Samples[len(sr.Samples)-1].V
	}
	if got := byKey["env2vec_serve_requests_total/served"]; got != n {
		t.Fatalf("served counter %v, want %d (have %v)", got, n, byKey)
	}
	for _, stage := range []string{"queue_wait", "forward"} {
		if c := byKey["env2vec_serve_stage_latency_ms_count/"+stage]; c != n {
			t.Fatalf("stage %s histogram count %v, want %d", stage, c, n)
		}
	}
	if byKey["env2vec_serve_model_version"] != 1 {
		t.Fatalf("model version gauge %v, want 1", byKey["env2vec_serve_model_version"])
	}
	if byKey["env2vec_serve_queue_capacity"] != 16 {
		t.Fatalf("queue capacity gauge %v, want 16", byKey["env2vec_serve_queue_capacity"])
	}
	if byKey["env2vec_serve_batches_total"] < 1 {
		t.Fatalf("batches counter %v, want >= 1", byKey["env2vec_serve_batches_total"])
	}
	if byKey["env2vec_serve_request_latency_ms_count"] != n {
		t.Fatalf("latency histogram count %v, want %d", byKey["env2vec_serve_request_latency_ms_count"], n)
	}
}
