package obs

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Request outcomes shared by the daemons' trace recorders. A trace's
// outcome drives tail sampling: anything other than OutcomeServed is
// always retained.
const (
	OutcomeServed = "served"
	OutcomeFailed = "failed"
	OutcomeShed   = "shed"
)

// Trace is one completed request's span tree, as stored and as served by
// GET /traces/{id}. Spans are in recording order with the root first.
type Trace struct {
	TraceID     string  `json:"trace_id"`
	Root        string  `json:"root"` // root span name
	Outcome     string  `json:"outcome"`
	Retried     bool    `json:"retried,omitempty"` // took more than one forward attempt
	StartUnixUS int64   `json:"start_unix_us"`
	DurationMS  float64 `json:"duration_ms"`
	Spans       []Span  `json:"spans"`
}

// TraceSummary is one trace's entry in the GET /traces listing, and what a
// tail-sampling decision reads of a trace.
type TraceSummary struct {
	TraceID     string  `json:"trace_id"`
	Root        string  `json:"root"`
	Outcome     string  `json:"outcome"`
	Retried     bool    `json:"retried,omitempty"`
	StartUnixUS int64   `json:"start_unix_us"`
	DurationMS  float64 `json:"duration_ms"`
	Spans       int     `json:"spans"`
}

// TraceList is the GET /traces payload.
type TraceList struct {
	Count  int            `json:"count"`
	Traces []TraceSummary `json:"traces"`
}

// TraceStoreConfig sizes a TraceStore and its sampling policy.
type TraceStoreConfig struct {
	// Capacity bounds how many traces are retained; beyond it the oldest
	// are evicted (default 1024).
	Capacity int
	// MaxAge evicts traces older than this regardless of capacity
	// (default 10m; negative disables age eviction).
	MaxAge time.Duration
	// SampleRate is the share of unremarkable traces kept — ones that
	// served cleanly, on the first attempt, under SlowMS (default 0.1;
	// negative keeps none of them, 1 keeps all). The decision is a function
	// of the trace id (headSample), so every process a request passes
	// through keeps it or drops it alike.
	SampleRate float64
	// SlowMS is the latency threshold above which a trace is always
	// retained, whatever its outcome (default 250; negative disables the
	// latency criterion).
	SlowMS float64

	// now is a test hook for the wall clock; nil uses time.Now.
	now func() time.Time
}

// storedTrace is one kept trace: its summary, its spans in stored form (a
// string of (trace id, span section) groups: one object, nothing in it for
// the collector to trace) and its admission time for age eviction.
type storedTrace struct {
	sum   TraceSummary
	spans string
	added time.Time
}

// TraceStore is a bounded in-memory store of completed traces with
// tail-based sampling: traces that failed, were shed, retried, or ran
// slow are always kept; the unremarkable rest is head-sampled at
// SampleRate; capacity and age bound the whole thing. A kept trace is held
// encoded and decoded on read. It implements http.Handler for GET /traces
// and GET /traces/{id}. Nil-safe: a nil store drops everything and serves
// 404s.
type TraceStore struct {
	cfg TraceStoreConfig
	// sampleBelow is SampleRate as a bound on a trace id's hash; keepAll
	// stands for the bound 2⁶⁴, which a uint64 cannot hold.
	sampleBelow uint64
	keepAll     bool

	mu     sync.Mutex
	traces map[string]storedTrace
	order  []string // insertion order, oldest first

	completed                   *Counter
	keptFailed, keptShed        *Counter
	keptRetry, keptSlow         *Counter
	keptSampled                 *Counter
	dropped                     *Counter
	evictedCapacity, evictedAge *Counter
}

// NewTraceStore builds a store with cfg (zero fields get defaults) and
// registers its env2vec_trace_* metrics into reg (nil reg: unregistered,
// still counting nothing — nil-safe counters).
func NewTraceStore(cfg TraceStoreConfig, reg *Registry) *TraceStore {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1024
	}
	if cfg.MaxAge == 0 {
		cfg.MaxAge = 10 * time.Minute
	}
	if cfg.SampleRate == 0 {
		cfg.SampleRate = 0.1
	}
	if cfg.SlowMS == 0 {
		cfg.SlowMS = 250
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	ts := &TraceStore{
		cfg:    cfg,
		traces: make(map[string]storedTrace),
	}
	switch {
	case cfg.SampleRate >= 1:
		ts.keepAll = true
	case cfg.SampleRate > 0:
		ts.sampleBelow = uint64(cfg.SampleRate * (1 << 64))
	}
	ts.completed = reg.Counter("env2vec_trace_completed_total", "Completed traces offered to the trace store.", nil)
	keptHelp := "Traces retained, by the tail-sampling criterion that kept them."
	ts.keptFailed = reg.Counter("env2vec_trace_kept_total", keptHelp, Labels{"reason": "failed"})
	ts.keptShed = reg.Counter("env2vec_trace_kept_total", keptHelp, Labels{"reason": "shed"})
	ts.keptRetry = reg.Counter("env2vec_trace_kept_total", keptHelp, Labels{"reason": "retry"})
	ts.keptSlow = reg.Counter("env2vec_trace_kept_total", keptHelp, Labels{"reason": "slow"})
	ts.keptSampled = reg.Counter("env2vec_trace_kept_total", keptHelp, Labels{"reason": "sampled"})
	ts.dropped = reg.Counter("env2vec_trace_dropped_total", "Unremarkable traces head sampling dropped.", nil)
	evictHelp := "Stored traces evicted, by cause."
	ts.evictedCapacity = reg.Counter("env2vec_trace_evicted_total", evictHelp, Labels{"cause": "capacity"})
	ts.evictedAge = reg.Counter("env2vec_trace_evicted_total", evictHelp, Labels{"cause": "age"})
	reg.GaugeFunc("env2vec_trace_stored", "Traces currently retained.", nil, func() float64 { return float64(ts.Len()) })
	return ts
}

// keep decides whether a completed trace survives tail sampling, returning
// the counter recording why it was kept.
func (ts *TraceStore) keep(t *TraceSummary) (bool, *Counter) {
	switch t.Outcome {
	case OutcomeShed:
		return true, ts.keptShed
	case OutcomeServed:
		// fall through to the retry, latency and head-sampling criteria
	default:
		return true, ts.keptFailed
	}
	if t.Retried {
		return true, ts.keptRetry
	}
	if ts.cfg.SlowMS >= 0 && t.DurationMS >= ts.cfg.SlowMS {
		return true, ts.keptSlow
	}
	if ts.headSample(t.TraceID) {
		return true, ts.keptSampled
	}
	return false, nil
}

// headSample keeps an unremarkable trace when Hash64 of its id is below
// SampleRate·2⁶⁴: a function of the id alone, so a proxy and the backend
// that served a request decide the same for it, and one id set keeps one
// subset on every run.
func (ts *TraceStore) headSample(traceID string) bool {
	return ts.keepAll || Hash64(traceID) < ts.sampleBelow
}

// Hash64 hashes a string's bytes with FNV-1a and murmur3's fmix64 finalizer. Raw
// FNV-1a has poor avalanche in its high bits for inputs that differ only
// near the end — sequential request ids ("json-1", "json-2", …), ring keys
// sharing an environment prefix — and fmix64 spreads those low-order
// differences across the word, so comparing the hash with a fraction of
// 2⁶⁴ keeps that fraction of any such run.
func Hash64[T bytestring](s T) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Sample is the tail-sampling decision for a completed trace, counted as
// completed and as kept or dropped. It happens at completion, when the
// outcome and duration are known, which is what lets the slow and failed
// tail be kept preferentially while the bulk is down-sampled. It reads
// only t's TraceID, Outcome, Retried and DurationMS, so a caller whose spans
// are costly to render calls Sample first and renders them only for Store.
func (ts *TraceStore) Sample(t *TraceSummary) bool {
	if ts == nil {
		return false
	}
	ts.completed.Inc()
	ok, kept := ts.keep(t)
	if !ok {
		ts.dropped.Inc()
		return false
	}
	kept.Inc()
	return true
}

// Store retains a trace Sample chose to keep, evicting by age and capacity:
// its summary, sum.Spans the number of spans it holds, and its spans in
// stored form (AppendSpans, or AppendSpanGroup followed by a span section,
// per group). The store keeps one copy of the trace id and the spans
// together, so the caller may reuse both buffers.
func (ts *TraceStore) Store(sum TraceSummary, spans []byte) {
	var b strings.Builder
	b.Grow(len(sum.TraceID) + len(spans))
	b.WriteString(sum.TraceID)
	b.Write(spans)
	kept := b.String()
	sum.TraceID = kept[:len(sum.TraceID)]
	st := storedTrace{sum: sum, spans: kept[len(sum.TraceID):], added: ts.cfg.now()}

	ts.mu.Lock()
	ts.purgeAgedLocked(st.added)
	if _, exists := ts.traces[sum.TraceID]; !exists {
		for len(ts.traces) >= ts.cfg.Capacity && len(ts.order) > 0 {
			old := ts.order[0]
			ts.order = ts.order[1:]
			delete(ts.traces, old)
			ts.evictedCapacity.Inc()
		}
		ts.order = append(ts.order, sum.TraceID)
	}
	ts.traces[sum.TraceID] = st
	ts.mu.Unlock()
}

// purgeAgedLocked drops traces older than MaxAge; callers hold mu.
func (ts *TraceStore) purgeAgedLocked(now time.Time) {
	if ts.cfg.MaxAge < 0 {
		return
	}
	cutoff := now.Add(-ts.cfg.MaxAge)
	for len(ts.order) > 0 {
		st, ok := ts.traces[ts.order[0]]
		if ok && st.added.After(cutoff) {
			break
		}
		if ok {
			delete(ts.traces, ts.order[0])
			ts.evictedAge.Inc()
		}
		ts.order = ts.order[1:]
	}
}

// Len returns the number of traces currently retained.
func (ts *TraceStore) Len() int {
	if ts == nil {
		return 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.traces)
}

// Get returns the stored trace for a trace id, its spans decoded.
func (ts *TraceStore) Get(id string) (Trace, bool) {
	if ts == nil {
		return Trace{}, false
	}
	ts.mu.Lock()
	ts.purgeAgedLocked(ts.cfg.now())
	st, ok := ts.traces[id]
	ts.mu.Unlock()
	if !ok {
		return Trace{}, false
	}
	// Stored spans were encoded in this process, or checked by the wire
	// decoder's walk on their way in, and DecodeSpans holds them to no
	// limit but their own bytes: they decode.
	spans, _ := DecodeSpans(st.spans)
	s := &st.sum
	return Trace{
		TraceID: s.TraceID, Root: s.Root, Outcome: s.Outcome, Retried: s.Retried,
		StartUnixUS: s.StartUnixUS, DurationMS: s.DurationMS, Spans: spans,
	}, true
}

// List returns up to limit trace summaries, newest first, filtered to
// traces at least minMS long and (when outcome is non-empty) matching the
// outcome. limit <= 0 means no cap beyond the store's contents.
func (ts *TraceStore) List(minMS float64, outcome string, limit int) []TraceSummary {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	ts.purgeAgedLocked(ts.cfg.now())
	matched := make([]TraceSummary, 0, len(ts.order))
	for i := len(ts.order) - 1; i >= 0; i-- {
		st, ok := ts.traces[ts.order[i]]
		if !ok {
			continue
		}
		if st.sum.DurationMS < minMS || (outcome != "" && st.sum.Outcome != outcome) {
			continue
		}
		matched = append(matched, st.sum)
		if limit > 0 && len(matched) >= limit {
			break
		}
	}
	ts.mu.Unlock()
	// Insertion order approximates start order but cross-goroutine adds can
	// interleave; make newest-first exact for the API.
	sort.SliceStable(matched, func(i, j int) bool { return matched[i].StartUnixUS > matched[j].StartUnixUS })
	return matched
}

// ServeHTTP serves the store: GET /traces?min_ms=&outcome=&limit= lists
// retained traces (newest first), GET /traces/{id} returns one full span
// tree. Mount it at both "/traces" and "/traces/".
func (ts *TraceStore) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		traceError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	id := ""
	if i := strings.Index(r.URL.Path, "/traces"); i >= 0 {
		id = strings.Trim(r.URL.Path[i+len("/traces"):], "/")
	}
	w.Header().Set("Content-Type", "application/json")
	if id != "" {
		t, ok := ts.Get(id)
		if !ok {
			traceError(w, http.StatusNotFound, "unknown or evicted trace id")
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(t)
		return
	}
	q := r.URL.Query()
	minMS := 0.0
	if v := q.Get("min_ms"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			traceError(w, http.StatusBadRequest, "bad min_ms: "+err.Error())
			return
		}
		minMS = f
	}
	limit := 100
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			traceError(w, http.StatusBadRequest, "bad limit: "+err.Error())
			return
		}
		limit = n
	}
	traces := ts.List(minMS, q.Get("outcome"), limit)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(TraceList{Count: len(traces), Traces: traces})
}

// traceError mirrors the daemons' {"error": ...} body shape.
func traceError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
