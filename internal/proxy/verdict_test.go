package proxy

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"env2vec/internal/obs"
	"env2vec/internal/serve"
	"env2vec/internal/wire"
)

// backendKind is what stands behind the proxy in one row of the verdict
// table, speaking HTTP and the wire protocol with the same temper.
type backendKind int

const (
	serving   backendKind = iota // a serve.Server with a model
	modelless                    // a serve.Server that never got one: 503 on both protocols
	shedding                     // canned 429s
	rejecting                    // canned 400s: a conclusive client error
	dead                         // addresses nothing listens on
)

func newKindBackend(t *testing.T, kind backendKind) (url, wireAddr string) {
	t.Helper()
	canned := func(status int) (string, string) {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, http.StatusText(status), status)
		}))
		t.Cleanup(srv.Close)
		fw := newFakeWire(t, 0)
		fw.status = status
		return srv.URL, fw.addr
	}
	switch kind {
	case serving:
		be := newE2EBackend(t, 3)
		addr, _ := attachWire(t, be)
		return be.srv.URL, addr
	case modelless:
		s := serve.New(serve.Config{MaxBatch: 8, QueueDepth: 256, Workers: 1})
		t.Cleanup(s.Close)
		srv := httptest.NewServer(s)
		t.Cleanup(srv.Close)
		addr, _ := attachWire(t, &e2eBackend{s: s, srv: srv})
		return srv.URL, addr
	case shedding:
		return canned(http.StatusTooManyRequests)
	case rejecting:
		return canned(http.StatusBadRequest)
	default:
		srv := httptest.NewServer(nil)
		srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ln.Close()
		return srv.URL, ln.Addr().String()
	}
}

// verdict is everything one forwarded unit leaves behind that a client, a
// scrape or a trace reader can see.
type verdict struct {
	Code int
	Msg  string // what the client reads, cut after the transport's own error text

	Served, Shed, Failed          uint64 // requests_total{outcome}
	LatServed, LatShed, LatFailed uint64 // request_latency_ms{outcome} samples
	Retries, Failovers, Backoffs  uint64
	AttemptOK, AttemptErr         uint64 // attempt_latency_ms{outcome} samples
	BackendServed, BackendFailed  [2]uint64
	Stored                        bool // a trace under the request's id
	Outcome                       string
	Retried                       bool
	Attempts                      []string // each proxy.attempt's outcome attribute, in order
	RootError                     bool     // the root span carries an error attribute
	families, spans               []string // moved metric families, distinct span names: compared across fronts, not to the row
}

const verdictID = "0123456789abcdef"

// TestFrontsEmitSameFamiliesAndSpans is the oracle of the forwarding core:
// every verdict it can reach, driven through the JSON front and through the
// wire front, shows the client the same status and message, moves the same
// metric families by the same amounts — exactly one outcome per forwarded
// unit — and stores the same trace. The differences allowed are the
// protocols' own, listed in only.
func TestFrontsEmitSameFamiliesAndSpans(t *testing.T) {
	only := map[string]string{
		"env2vec_proxy_wire_connections_total": "wire", // transport counters with no HTTP twin
		"env2vec_proxy_wire_batches_total":     "wire",
		"serve.encode":                         "json", // a wire reply has no JSON encode stage
	}
	rows := []struct {
		name        string
		home, other backendKind
		prepare     func(p *Proxy)
		want        verdict
	}{
		{name: "served at home", home: serving, other: serving, want: verdict{
			Code: 200, Served: 1, LatServed: 1, AttemptOK: 1, BackendServed: [2]uint64{1, 0},
			Stored: true, Outcome: obs.OutcomeServed, Attempts: []string{"served"},
		}},
		{name: "home dead, failover", home: dead, other: serving, want: verdict{
			Code: 200, Served: 1, LatServed: 1, Retries: 1, Failovers: 1, Backoffs: 1, AttemptOK: 1, AttemptErr: 1,
			BackendServed: [2]uint64{0, 1}, BackendFailed: [2]uint64{1, 0},
			Stored: true, Outcome: obs.OutcomeServed, Retried: true, Attempts: []string{"failed", "failover"},
		}},
		{name: "home sheds, spill served", home: shedding, other: serving, want: verdict{
			Code: 200, Served: 1, LatServed: 1, Retries: 1, Failovers: 1, Backoffs: 1, AttemptOK: 2,
			BackendServed: [2]uint64{0, 1},
			Stored:        true, Outcome: obs.OutcomeServed, Retried: true, Attempts: []string{"shed", "failover"},
		}},
		{name: "every candidate 429", home: shedding, other: shedding, want: verdict{
			Code: 429, Msg: "proxy: fleet saturated", Shed: 1, LatShed: 1, Retries: 1, Backoffs: 1, AttemptOK: 2,
			Stored: true, Outcome: obs.OutcomeShed, Retried: true, Attempts: []string{"shed", "shed"}, RootError: true,
		}},
		{name: "every candidate 503", home: modelless, other: modelless, want: verdict{
			Code: 503, Msg: "proxy: all candidates refused (last status 503)", Failed: 1, LatFailed: 1, Retries: 1, Backoffs: 1, AttemptOK: 2,
			Stored: true, Outcome: obs.OutcomeFailed, Retried: true, Attempts: []string{"refused", "refused"}, RootError: true,
		}},
		{name: "every candidate unreachable", home: dead, other: dead, want: verdict{
			Code: 502, Msg: "proxy: all candidates unreachable: ", Failed: 1, LatFailed: 1, Retries: 1, Backoffs: 1, AttemptErr: 2,
			BackendFailed: [2]uint64{1, 1},
			Stored:        true, Outcome: obs.OutcomeFailed, Retried: true, Attempts: []string{"failed", "failed"}, RootError: true,
		}},
		{name: "no live backend", home: serving, other: serving,
			prepare: func(p *Proxy) {
				for _, b := range p.Backends() {
					b.alive.Store(false)
				}
			},
			want: verdict{
				Code: 503, Msg: "proxy: no live backends", Failed: 1, LatFailed: 1,
				Stored: true, Outcome: obs.OutcomeFailed, RootError: true,
			}},
		{name: "pool saturated", home: serving, other: serving,
			prepare: func(p *Proxy) { p.totalInflight.Add(int64(p.cfg.MaxInflight)) },
			want: verdict{
				Code: 429, Msg: "proxy: pool saturated", Shed: 1, LatShed: 1,
				Stored: true, Outcome: obs.OutcomeShed, RootError: true,
			}},
		{name: "conclusive 400, relayed not retried", home: rejecting, other: serving, want: verdict{
			Code: 400, Msg: "Bad Request", Failed: 1, LatFailed: 1, AttemptOK: 1,
			Stored: true, Outcome: obs.OutcomeFailed, Attempts: []string{"error"},
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var got [2]verdict
			for i, front := range []string{"json", "wire"} {
				got[i] = driveVerdict(t, front, row.home, row.other, row.prepare)
				v := got[i]
				v.families, v.spans = nil, nil
				if len(v.Msg) > len(row.want.Msg) && strings.HasSuffix(row.want.Msg, ": ") {
					v.Msg = v.Msg[:len(row.want.Msg)] // the rest is the transport's own error text
				}
				if !reflect.DeepEqual(v, row.want) {
					t.Errorf("%s front:\n got %+v\nwant %+v", front, v, row.want)
				}
				if sum := v.Served + v.Shed + v.Failed; sum != 1 {
					t.Errorf("%s front: one forwarded unit counted under %d outcomes", front, sum)
				}
			}
			diffAcrossFronts(t, "metric family", got[0].families, got[1].families, only)
			diffAcrossFronts(t, "span", got[0].spans, got[1].spans, only)
			if row.want.Code == 200 && (len(got[1].spans) < 5 || len(got[1].families) < 4) {
				t.Fatalf("oracle saw too little to compare: families %v spans %v", got[1].families, got[1].spans)
			}
		})
	}
}

// driveVerdict sends one request, homed on the first of two backends of the
// given kinds, through one front of a fresh proxy and collects the verdict.
func driveVerdict(t *testing.T, front string, home, other backendKind, prepare func(*Proxy)) verdict {
	t.Helper()
	cfg := Config{Trace: keepAllTraces(), RetryBackoff: time.Millisecond, FailAfter: 3, Timeout: 5 * time.Second}
	for _, kind := range []backendKind{home, other} {
		url, addr := newKindBackend(t, kind)
		cfg.Backends = append(cfg.Backends, url)
		cfg.WireBackends = append(cfg.WireBackends, addr)
	}
	p := New(cfg)
	defer p.Close()
	build := buildsHomedOn(t, p)[0]
	if prepare != nil {
		prepare(p)
	}

	var v verdict
	switch front {
	case "json":
		w := doPredict(t, p, build, map[string]string{obs.RequestIDHeader: verdictID})
		v.Code, v.Msg = w.Code, strings.TrimSpace(w.Body.String())
		if (w.Code == http.StatusTooManyRequests) != (w.Header().Get("Retry-After") != "") {
			t.Errorf("json front: status %d with Retry-After %q", w.Code, w.Header().Get("Retry-After"))
		}
	case "wire":
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = p.ServeWire(ln) }()
		c, err := wire.Dial(ln.Addr().String(), wire.ClientConfig{Timeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		req := wireRequest(verdictID)
		req.Build = build
		replies, err := c.Predict([]*serve.Request{req})
		if err != nil {
			t.Fatalf("wire front: %v", err)
		}
		v.Code, v.Msg = replies[0].Status, replies[0].Error
	}
	if v.Code == http.StatusOK {
		v.Msg = "" // a prediction, not a message
	}

	v.Served, v.Shed, v.Failed = p.served.Value(), p.shed.Value(), p.failed.Value()
	v.LatServed, v.LatShed, v.LatFailed = p.latServed.Count(), p.latShed.Count(), p.latFailed.Count()
	v.Retries, v.Failovers, v.Backoffs = p.retries.Value(), p.failovers.Value(), p.backoffWait.Count()
	v.AttemptOK, v.AttemptErr = p.attemptOK.Count(), p.attemptErr.Count()
	for i, b := range p.Backends() {
		v.BackendServed[i], v.BackendFailed[i] = b.served.Value(), b.failed.Value()
	}
	tr, ok := p.Traces().Get(verdictID)
	v.Stored, v.Outcome, v.Retried = ok, tr.Outcome, tr.Retried
	seen := map[string]bool{}
	for i, sp := range tr.Spans {
		if (sp.Name == "proxy.request") != (i == 0) {
			t.Errorf("%s front: span %d is %s; the root comes first and once", front, i, sp.Name)
		}
		switch sp.Name {
		case "proxy.request":
			v.RootError = sp.Attrs["error"] != ""
		case "proxy.attempt":
			v.Attempts = append(v.Attempts, sp.Attrs["outcome"])
		}
		if !seen[sp.Name] {
			seen[sp.Name] = true
			v.spans = append(v.spans, sp.Name)
		}
	}
	sort.Strings(v.spans)

	var page bytes.Buffer
	if _, err := p.Metrics().WriteTo(&page); err != nil {
		t.Fatal(err)
	}
	moved := map[string]bool{}
	for _, line := range strings.Split(page.String(), "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.TrimLeft(value, "0.") == "" {
			continue // comments and zero samples
		}
		name, _, _ = strings.Cut(name, "{")
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			name = strings.TrimSuffix(name, suffix)
		}
		if name != "env2vec_proxy_inflight" { // the saturated row parks it high
			moved[name] = true
		}
	}
	for name := range moved {
		v.families = append(v.families, name)
	}
	sort.Strings(v.families)
	return v
}

// diffAcrossFronts fails for every name one front shows and the other does
// not, unless only lists it as that front's own.
func diffAcrossFronts(t *testing.T, kind string, json, wire []string, only map[string]string) {
	t.Helper()
	in := func(set []string, s string) bool { i := sort.SearchStrings(set, s); return i < len(set) && set[i] == s }
	for _, name := range json {
		if !in(wire, name) && only[name] != "json" {
			t.Errorf("%s %s: emitted by the JSON front only", kind, name)
		}
	}
	for _, name := range wire {
		if !in(json, name) && only[name] != "wire" {
			t.Errorf("%s %s: emitted by the wire front only", kind, name)
		}
	}
}

// TestJSONDroppedTraceMaterialisesNoSpans is the JSON twin of
// TestWireDroppedTraceMaterialisesNoSpans: the backend's span tree rides the
// response body, and the proxy parses it out only for a trace the store
// keeps. Every span of a tree costs at least its name, so a kept request
// allocates that many more objects than a dropped one, which parses nothing.
func TestJSONDroppedTraceMaterialisesNoSpans(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; gate runs in the non-race pass")
	}
	const spans, requests = 40, 50
	var tree []string
	for i := 0; i < spans; i++ {
		tree = append(tree, fmt.Sprintf(`{"name":"serve.stage%d","span_id":"%016x","duration_ms":1}`, i, i))
	}
	body := []byte(`{"prediction":42,"trace":{"spans":[` + strings.Join(tree, ",") + `]}}`)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	}))
	defer backend.Close()

	perRequest := func(trace obs.TraceStoreConfig) (float64, *Proxy) {
		p := New(Config{Backends: []string{backend.URL}, Trace: trace})
		t.Cleanup(p.Close)
		hdr := map[string]string{obs.RequestIDHeader: verdictID}
		run := func() {
			if w := doPredict(t, p, "B1", hdr); w.Code != http.StatusOK {
				t.Fatalf("predict: status %d", w.Code)
			}
		}
		run() // the connection to the backend is up
		// The backend allocates in the same process, the same on both sides
		// of the comparison.
		return testing.AllocsPerRun(requests, run), p
	}
	dropped, p := perRequest(obs.TraceStoreConfig{SampleRate: -1, SlowMS: -1})
	if n := p.Traces().Len(); n != 0 {
		t.Fatalf("sampling off, yet %d traces stored", n)
	}
	kept, p := perRequest(keepAllTraces())
	if tr, ok := p.Traces().Get(verdictID); !ok || len(tr.Spans) != 2+spans {
		t.Fatalf("sampling at 1: stored %v with %d spans, want %d", ok, len(tr.Spans), 2+spans)
	}
	if kept-dropped < spans {
		t.Fatalf("a kept request allocates %.0f, a dropped one %.0f: the %d-span body was parsed either way", kept, dropped, spans)
	}
}
