package main

// Spans recorded by the harness's own wrappers around the calls into each
// layer. They are kept in memory and written out when the run ends; an
// untraced run has a nil recorder and records nothing.

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"env2vec/internal/obs"
)

// span is one line of trace_<workload>.jsonl.
type span struct {
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	StartUS  int64  `json:"start_us"` // unix microseconds
	EndUS    int64  `json:"end_us"`
}

type recorder struct {
	mu    sync.Mutex
	spans []span
}

// add records one span; a nil recorder ignores it.
func (r *recorder) add(traceID, spanID, parentID, name string, start time.Time, d time.Duration) {
	if r == nil {
		return
	}
	startUS := start.UnixMicro()
	r.mu.Lock()
	r.spans = append(r.spans, span{
		TraceID: traceID, SpanID: spanID, ParentID: parentID, Name: name,
		StartUS: startUS, EndUS: startUS + d.Microseconds(),
	})
	r.mu.Unlock()
}

// addClient records the root span of one operation, from when it was due
// until its answer was read, and inside it the wait from the due time
// until the generator sent it.
func (r *recorder) addClient(id string, due time.Time, lat, late time.Duration) {
	r.add(id, clientSpanID(id), "", "client", due, lat)
	if late > 0 {
		r.add(id, id+"/late", clientSpanID(id), "client.late", due, late)
	}
}

// reset forgets what was recorded so far.
func (r *recorder) reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.mu.Unlock()
}

// Span ids are derived from the request id, so that a layer can name its
// parent without any header beyond the X-Request-ID the system already
// forwards.
func clientSpanID(reqID string) string { return reqID + "/client" }
func proxySpanID(reqID string) string  { return reqID + "/proxy" }

// wrapHandler returns the handlerWrap of a traced run: a span around every
// POST /predict a layer handles. A backend's span parents onto the proxy's
// when the request came through it, onto the client's otherwise; the
// proxy marks forwarded requests with its traceparent header.
func (r *recorder) wrapHandler(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := req.Header.Get(obs.RequestIDHeader)
		if id == "" || req.URL.Path != "/predict" {
			h.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, req)
		d := time.Since(start)
		switch {
		case layer == "proxy":
			r.add(id, proxySpanID(id), clientSpanID(id), "proxy", start, d)
		case req.Header.Get(obs.TraceParentHeader) != "":
			// One span per forward attempt: retries show as siblings.
			r.add(id, obs.NewSpanID(), proxySpanID(id), "serve", start, d)
		default:
			r.add(id, obs.NewSpanID(), clientSpanID(id), "serve", start, d)
		}
	})
}

// count returns how many spans carry the name.
func (r *recorder) count(name string) int {
	n := 0
	for _, s := range r.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// selfTimes returns, per span name, the self time of every span with that
// name in microseconds: a span's duration minus the part of its interval
// that its children cover.
func selfTimes(spans []span) map[string][]float64 {
	children := make(map[string][]span) // by parent span id
	for _, s := range spans {
		if s.ParentID != "" {
			children[s.ParentID] = append(children[s.ParentID], s)
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.EndUS-s.StartUS-covered(s, children[s.SpanID])))
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartUS < kids[j].StartUS })
	var total int64
	end := parent.StartUS
	for _, k := range kids {
		lo, hi := max(k.StartUS, end), min(k.EndUS, parent.EndUS)
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return total
}

// write stores the spans as JSON lines, one span per line.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
