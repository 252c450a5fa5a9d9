package obs

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceParentRoundTrip(t *testing.T) {
	traceID, spanID := NewRequestID(), NewSpanID()
	h := FormatTraceParent(traceID, spanID)
	gotTrace, gotSpan, ok := ParseTraceParent(h)
	if !ok || gotTrace != traceID || gotSpan != spanID {
		t.Fatalf("ParseTraceParent(%q) = %q, %q, %v; want %q, %q, true", h, gotTrace, gotSpan, ok, traceID, spanID)
	}
	for _, bad := range []string{"", "00", "00-abc", "00--def-01", "00-abc--01", "00-a-b-c-01"} {
		if _, _, ok := ParseTraceParent(bad); ok {
			t.Errorf("ParseTraceParent(%q) accepted malformed input", bad)
		}
	}
}

// mkTrace builds a one-span trace for store tests.
func mkTrace(id, outcome string, retried bool, durMS float64) Trace {
	return Trace{
		TraceID: id, Root: "test.request", Outcome: outcome, Retried: retried,
		StartUnixUS: time.Now().UnixMicro(), DurationMS: durMS,
		Spans: []Span{{TraceID: id, SpanID: "s-" + id, Name: "test.request", DurationMS: durMS}},
	}
}

// fnvBelow reports whether FNV-1a-64 of id, computed by hash/fnv and
// finished by murmur3's fmix64, is below rate·2⁶⁴: the head-sampling rule,
// from the standard library and the finalizer's published constants.
func fnvBelow(id string, rate float64) bool {
	f := fnv.New64a()
	f.Write([]byte(id))
	h := f.Sum64()
	h = (h ^ h>>33) * 0xff51afd7ed558ccd
	h = (h ^ h>>33) * 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return float64(h) < rate*(1<<64)
}

// sampledIDs returns an id head sampling keeps at rate 0.5 and one it drops.
func sampledIDs(t *testing.T) (lucky, unlucky string) {
	t.Helper()
	for i := 0; lucky == "" || unlucky == ""; i++ {
		id := fmt.Sprintf("t-%d", i)
		if fnvBelow(id, 0.5) {
			lucky = id
		} else {
			unlucky = id
		}
	}
	return lucky, unlucky
}

// TestTraceStoreTailSampling is the policy test: erred, shed, retried, and
// slow traces are always retained; the unremarkable rest is head-sampled by
// trace id.
func TestTraceStoreTailSampling(t *testing.T) {
	lucky, unlucky := sampledIDs(t)
	reg := NewRegistry()
	ts := NewTraceStore(TraceStoreConfig{Capacity: 64, SlowMS: 100, SampleRate: 0.5}, reg)

	// The always-kept criteria hold whatever the id hashes to.
	ts.Add(mkTrace(unlucky+"-failed", OutcomeFailed, false, 1))
	ts.Add(mkTrace(unlucky+"-shed", OutcomeShed, false, 1))
	ts.Add(mkTrace(unlucky+"-retried", OutcomeServed, true, 1))
	ts.Add(mkTrace(unlucky+"-slow", OutcomeServed, false, 150))
	ts.Add(mkTrace(unlucky, OutcomeServed, false, 1))
	for _, suffix := range []string{"-failed", "-shed", "-retried", "-slow"} {
		if _, ok := ts.Get(unlucky + suffix); !ok {
			t.Errorf("tail-sampling dropped %s, which must always be retained", unlucky+suffix)
		}
	}
	if _, ok := ts.Get(unlucky); ok {
		t.Errorf("unremarkable trace %s kept, though its id hashes above the rate", unlucky)
	}
	ts.Add(mkTrace(lucky, OutcomeServed, false, 1))
	if _, ok := ts.Get(lucky); !ok {
		t.Errorf("unremarkable trace %s dropped, though its id hashes below the rate", lucky)
	}

	// The kept/dropped counters tell the same story on /metrics.
	var page strings.Builder
	if _, err := reg.WriteTo(&page); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`env2vec_trace_kept_total{reason="failed"} 1`,
		`env2vec_trace_kept_total{reason="shed"} 1`,
		`env2vec_trace_kept_total{reason="retry"} 1`,
		`env2vec_trace_kept_total{reason="slow"} 1`,
		`env2vec_trace_kept_total{reason="sampled"} 1`,
		`env2vec_trace_dropped_total 1`,
		`env2vec_trace_completed_total 6`,
		`env2vec_trace_stored 5`,
	} {
		if !strings.Contains(page.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, page.String())
		}
	}
}

// TestHeadSamplingIsAFunctionOfTheID: one id set keeps one subset, the one
// Hash64 below SampleRate·2⁶⁴ names, in every store and on every run; the
// bounds keep all or none; and the kept share is the rate, of random request
// ids and in every run of 1000 sequential ones.
func TestHeadSamplingIsAFunctionOfTheID(t *testing.T) {
	kept := func(rate float64, ids []string) []string {
		ts := NewTraceStore(TraceStoreConfig{Capacity: len(ids) + 1, SampleRate: rate}, nil)
		var out []string
		for _, id := range ids {
			if ts.Sample(&TraceSummary{TraceID: id, Outcome: OutcomeServed}) {
				out = append(out, id)
			}
		}
		return out
	}
	ids := make([]string, 16)
	for i := range ids {
		ids[i] = fmt.Sprintf("%016x", uint64(i+1)*0x9e3779b97f4a7c15)
	}
	// Written down once: a change to the rule moves this list.
	const want = "[8ff34785799e5cbd cc623af8783354e7 454021de755d453b e3779b97f4a7c150]"
	if got := fmt.Sprint(kept(0.5, ids)); got != want {
		t.Fatalf("rate 0.5 keeps %s, want %s", got, want)
	}
	for _, id := range ids {
		if got := fmt.Sprint(kept(0.5, []string{id})); (got != "[]") != fnvBelow(id, 0.5) {
			t.Errorf("id %s: kept %v, hash/fnv says %v", id, got != "[]", fnvBelow(id, 0.5))
		}
	}
	if got := kept(1, ids); len(got) != len(ids) {
		t.Errorf("rate 1 keeps %d of %d", len(got), len(ids))
	}
	if got := kept(-1, ids); len(got) != 0 {
		t.Errorf("a negative rate keeps %d", len(got))
	}

	const n = 100000
	random := make([]string, n)
	for i := range random {
		random[i] = NewRequestID()
	}
	if share := float64(len(kept(0.1, random))) / n; share < 0.095 || share > 0.105 {
		t.Fatalf("rate 0.1 keeps %.4f of %d random request ids, want 0.1 ± 0.005", share, n)
	}

	// Ids a client numbers itself differ only in their last characters,
	// which raw FNV-1a barely carries into its top bits: without the
	// finalizer, runs of about a hundred of them are kept or dropped
	// together. Every run of 1000 keeps 0.1 ± 0.04 (four standard
	// deviations of a fair draw).
	const run = 1000
	seq := make([]string, run)
	for from := 0; from < n; from += run {
		for i := range seq {
			seq[i] = "json-" + strconv.Itoa(from+i)
		}
		if share := float64(len(kept(0.1, seq))) / run; share < 0.06 || share > 0.14 {
			t.Fatalf("rate 0.1 keeps %.3f of json-%d … json-%d, want 0.1 ± 0.04", share, from, from+run-1)
		}
	}
}

// TestTraceStoreKeepsWhatNoPeerMaySend: the span-section limits are for
// sections from a peer. A kept trace beyond every one of them — a 70 KiB id,
// more spans than a section may count, a span with more attributes and a
// longer value than a section may carry — comes back from Get as it went in,
// and List counts its spans.
func TestTraceStoreKeepsWhatNoPeerMaySend(t *testing.T) {
	ts := NewTraceStore(TraceStoreConfig{Capacity: 4, SampleRate: 1}, nil)
	id := strings.Repeat("a", 70<<10)
	tr := mkTrace(id, OutcomeServed, false, 1)
	for i := 0; i < MaxSectionSpans; i++ {
		tr.Spans = append(tr.Spans, Span{TraceID: id, SpanID: strconv.Itoa(i), Name: "test.child"})
	}
	for i := 0; i <= MaxSpanAttrs; i++ {
		tr.Spans[1].SetAttr(fmt.Sprintf("k%03d", i), "v")
	}
	tr.Spans[2].SetAttr("long", strings.Repeat("v", maxSpanString+1))
	ts.Add(tr)
	got, ok := ts.Get(id)
	if !ok || !reflect.DeepEqual(got, tr) {
		t.Fatalf("Get returns %d spans (found %v), want the %d stored", len(got.Spans), ok, len(tr.Spans))
	}
	if l := ts.List(0, "", 0); len(l) != 1 || l[0].Spans != len(tr.Spans) {
		t.Fatalf("List counts %+v spans, want %d", l[0].Spans, len(tr.Spans))
	}
}

func TestTraceStoreCapacityEviction(t *testing.T) {
	reg := NewRegistry()
	ts := NewTraceStore(TraceStoreConfig{Capacity: 4, SampleRate: -1}, reg)
	for i := 0; i < 7; i++ {
		ts.Add(mkTrace(fmt.Sprintf("t%d", i), OutcomeFailed, false, 1))
	}
	if got := ts.Len(); got != 4 {
		t.Fatalf("Len = %d, want capacity bound 4", got)
	}
	for i := 0; i < 3; i++ {
		if _, ok := ts.Get(fmt.Sprintf("t%d", i)); ok {
			t.Errorf("oldest trace t%d survived capacity eviction", i)
		}
	}
	for i := 3; i < 7; i++ {
		if _, ok := ts.Get(fmt.Sprintf("t%d", i)); !ok {
			t.Errorf("recent trace t%d evicted", i)
		}
	}
	if got := ts.evictedCapacity.Value(); got != 3 {
		t.Fatalf("capacity evictions = %d, want 3", got)
	}
}

func TestTraceStoreAgeEviction(t *testing.T) {
	now := time.Now()
	ts := NewTraceStore(TraceStoreConfig{
		Capacity: 16, MaxAge: time.Minute, SampleRate: -1,
		now: func() time.Time { return now },
	}, nil)
	ts.Add(mkTrace("old", OutcomeFailed, false, 1))
	now = now.Add(30 * time.Second)
	ts.Add(mkTrace("young", OutcomeFailed, false, 1))
	now = now.Add(45 * time.Second) // old is now 75s stale, young 45s
	if _, ok := ts.Get("old"); ok {
		t.Error("trace older than MaxAge still retrievable")
	}
	if _, ok := ts.Get("young"); !ok {
		t.Error("trace within MaxAge evicted")
	}
	if got := ts.Len(); got != 1 {
		t.Fatalf("Len = %d after age purge, want 1", got)
	}
}

func TestTraceStoreHTTP(t *testing.T) {
	ts := NewTraceStore(TraceStoreConfig{Capacity: 16, SampleRate: -1}, nil)
	ts.Add(mkTrace("aa11", OutcomeFailed, false, 5))
	ts.Add(mkTrace("bb22", OutcomeShed, false, 1))
	ts.Add(mkTrace("cc33", OutcomeServed, true, 300))
	mux := http.NewServeMux()
	mux.Handle("/traces", ts)
	mux.Handle("/traces/", ts)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	getList := func(query string) TraceList {
		t.Helper()
		resp, err := http.Get(srv.URL + "/traces" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /traces%s: status %d", query, resp.StatusCode)
		}
		var tl TraceList
		if err := json.NewDecoder(resp.Body).Decode(&tl); err != nil {
			t.Fatal(err)
		}
		return tl
	}

	if tl := getList(""); tl.Count != 3 {
		t.Fatalf("unfiltered list count = %d, want 3", tl.Count)
	}
	if tl := getList("?min_ms=100"); tl.Count != 1 || tl.Traces[0].TraceID != "cc33" {
		t.Fatalf("min_ms filter: %+v", tl)
	}
	if tl := getList("?outcome=shed"); tl.Count != 1 || tl.Traces[0].TraceID != "bb22" {
		t.Fatalf("outcome filter: %+v", tl)
	}
	if tl := getList("?limit=2"); tl.Count != 2 {
		t.Fatalf("limit: %+v", tl)
	}

	resp, err := http.Get(srv.URL + "/traces/cc33")
	if err != nil {
		t.Fatal(err)
	}
	var tr Trace
	err = json.NewDecoder(resp.Body).Decode(&tr)
	resp.Body.Close()
	if err != nil || tr.TraceID != "cc33" || !tr.Retried || len(tr.Spans) != 1 {
		t.Fatalf("GET /traces/cc33 = %+v, err %v", tr, err)
	}

	resp, err = http.Get(srv.URL + "/traces/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: status %d, want 404", resp.StatusCode)
	}

	postResp, err := http.Post(srv.URL+"/traces", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	postResp.Body.Close()
	if postResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /traces: status %d, want 405", postResp.StatusCode)
	}
}

// TestTraceStoreConcurrent hammers Add/Get/List from many goroutines; the
// -race battery in reproduce.sh gives this test its teeth.
func TestTraceStoreConcurrent(t *testing.T) {
	ts := NewTraceStore(TraceStoreConfig{Capacity: 32, SampleRate: 1}, NewRegistry())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("g%d-%d", g, i)
				ts.Add(mkTrace(id, OutcomeServed, false, float64(i)))
				ts.Get(id)
				if i%17 == 0 {
					ts.List(0, "", 10)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := ts.Len(); got > 32 {
		t.Fatalf("Len = %d, exceeded capacity 32 under concurrency", got)
	}
}

// A nil store must absorb the whole API without panicking, like the rest
// of the obs layer.
func TestTraceStoreNilSafe(t *testing.T) {
	var ts *TraceStore
	ts.Add(mkTrace("x", OutcomeFailed, false, 1))
	if ts.Len() != 0 {
		t.Fatal("nil store has nonzero length")
	}
	if _, ok := ts.Get("x"); ok {
		t.Fatal("nil store returned a trace")
	}
	if ts.List(0, "", 10) != nil {
		t.Fatal("nil store listed traces")
	}
}

// Add offers a completed trace to the store: Sample, then Store if kept,
// as the daemons do with the spans they render only once a trace is kept.
func (ts *TraceStore) Add(t Trace) {
	sum := TraceSummary{
		TraceID: t.TraceID, Root: t.Root, Outcome: t.Outcome, Retried: t.Retried,
		StartUnixUS: t.StartUnixUS, DurationMS: t.DurationMS,
	}
	if ts.Sample(&sum) {
		sum.Spans = len(t.Spans)
		ts.Store(sum, AppendSpans(nil, t.Spans))
	}
}
