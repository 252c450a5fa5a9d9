package obs

import (
	"flag"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/traces_golden.txt from this build")

// goldenTraces are stored traces of every shape the daemons keep: a proxy
// frame stitched from two backends' sections (several trace ids in one
// trace), a failover, a backend's own served and failed requests, and
// durations and attributes that stress the JSON encoder.
func goldenTraces() []Trace {
	const t0 = 1700000000000000
	att := func(id, parent string, n int, start int64, attrs map[string]string) Span {
		return Span{TraceID: "00000000000000a1", SpanID: id, ParentID: parent, Name: "proxy.attempt",
			StartUnixUS: start, DurationMS: 0.3125 * float64(n), Attrs: attrs}
	}
	stage := func(trace, root, parent string, start int64) []Span {
		return []Span{
			{TraceID: trace, SpanID: root, ParentID: parent, Name: "serve.request", StartUnixUS: start, DurationMS: 0.75,
				Attrs: map[string]string{"outcome": "served"}},
			{TraceID: trace, SpanID: root[:15] + "1", ParentID: root, Name: "serve.queue_wait", StartUnixUS: start, DurationMS: 0.25},
			{TraceID: trace, SpanID: root[:15] + "2", ParentID: root, Name: "serve.forward", StartUnixUS: start + 250, DurationMS: 0.5,
				Attrs: map[string]string{"batch_size": "32", "batch_id": "9"}},
		}
	}
	frame := []Span{
		{TraceID: "00000000000000a1", SpanID: "aaaaaaaaaaaaaaaa", Name: "proxy.request", StartUnixUS: t0, DurationMS: 1.5,
			Attrs: map[string]string{"path": "wire:batch", "outcome": "served", "batch_size": "2"}},
		att("bbbbbbbbbbbbbbbb", "aaaaaaaaaaaaaaaa", 1, t0+10, map[string]string{"backend": "fake-0.test", "attempt": "1", "outcome": "failed", "error": "dial tcp: connection refused \"quoted\" <tag> & é"}),
		att("cccccccccccccccc", "aaaaaaaaaaaaaaaa", 2, t0+20, map[string]string{"backend": "fake-1.test", "attempt": "2", "outcome": "failover", "backoff_wait_ms": "5"}),
	}
	frame = append(frame, stage("00000000000000a1", "1111111111111110", "cccccccccccccccc", t0+30)...)
	frame = append(frame, stage("00000000000000a2", "2222222222222220", "cccccccccccccccc", t0+30)...)
	return []Trace{
		{TraceID: "00000000000000a1", Root: "proxy.request", Outcome: OutcomeServed, Retried: true,
			StartUnixUS: t0, DurationMS: 1.5, Spans: frame},
		{TraceID: "00000000000000b1", Root: "serve.request", Outcome: OutcomeServed,
			StartUnixUS: t0 + 1000, DurationMS: 0.1 + 0.2, Spans: stage("00000000000000b1", "3333333333333330", "", t0+1000)},
		{TraceID: "00000000000000c1", Root: "serve.request", Outcome: OutcomeFailed,
			StartUnixUS: t0 + 2000, DurationMS: math.SmallestNonzeroFloat64,
			Spans: []Span{{TraceID: "00000000000000c1", SpanID: "4444444444444444", ParentID: "00000000000000aa", Name: "serve.request",
				StartUnixUS: -7, DurationMS: 1e21, Attrs: map[string]string{"outcome": "failed", "error": "serve: queue full"}}}},
		{TraceID: "00000000000000d1", Root: "proxy.request", Outcome: OutcomeShed,
			StartUnixUS: t0 + 3000, DurationMS: 0,
			Spans: []Span{{TraceID: "00000000000000d1", SpanID: "5555555555555555", Name: "proxy.request", StartUnixUS: t0 + 3000,
				Attrs: map[string]string{}}}},
	}
}

// TestTraceStoreJSONGolden: GET /traces and GET /traces/{id} serve, byte for
// byte, the JSON written when the store still kept span trees, for the same
// stored traces: however the store holds a trace, what it serves is that.
func TestTraceStoreJSONGolden(t *testing.T) {
	now := time.UnixMicro(1700000000000000)
	ts := NewTraceStore(TraceStoreConfig{Capacity: 16, SampleRate: 1, SlowMS: -1, now: func() time.Time { return now }}, nil)
	for _, tr := range goldenTraces() {
		ts.Add(tr)
	}
	var got []byte
	for _, path := range []string{
		"/traces", "/traces?outcome=served", "/traces?min_ms=1&limit=1",
		"/traces/00000000000000a1", "/traces/00000000000000b1", "/traces/00000000000000c1", "/traces/00000000000000d1",
		"/traces/unknown",
	} {
		rec := httptest.NewRecorder()
		ts.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		body, _ := io.ReadAll(rec.Result().Body)
		got = append(got, "GET "+path+" "+rec.Result().Status+"\n"...)
		got = append(got, body...)
	}
	golden := filepath.Join("testdata", "traces_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("the trace store serves\n%s\nthe golden is\n%s", got, want)
	}
}
