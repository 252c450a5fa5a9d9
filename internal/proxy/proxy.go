package proxy

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"env2vec/internal/envmeta"
	"env2vec/internal/obs"
	"env2vec/internal/serve"
	"env2vec/internal/wire"
)

// Config sizes the front tier.
type Config struct {
	// Backends are the e2vserve base URLs the proxy routes over (required,
	// at least one).
	Backends []string
	// WireBackends are the backends' binary-protocol addresses (host:port),
	// parallel to Backends — WireBackends[i] is Backends[i]'s wire listener.
	// Optional; required (and length-checked) only when the proxy itself
	// serves the wire protocol via ServeWire.
	WireBackends []string
	// VNodes is how many virtual nodes each backend owns on the hash ring
	// (default 64): more vnodes, smoother slices, slower ring build.
	VNodes int
	// LoadFactor is the bounded-load factor c: a backend is skipped for
	// *new* placement when admitting the request would push it past
	// ceil(c · total-in-flight / live-backends) (default 1.25; values
	// ≤ 1 disable the bound).
	LoadFactor float64
	// Retries is the per-request failover budget: how many *additional*
	// backends a request may try after its home fails (default: all of
	// them — len(Backends)−1).
	Retries int
	// RetryBackoff is the first retry's delay, doubling per attempt
	// (default 5ms). Backoff only applies between attempts of one request.
	RetryBackoff time.Duration
	// MaxInflight caps the pool-wide concurrent forwards; beyond it the
	// proxy sheds with 429 instead of queueing (default 256 per backend).
	MaxInflight int
	// CheckInterval is the health-probe period (default 2s).
	CheckInterval time.Duration
	// FailAfter / RiseAfter are the consecutive probe outcomes needed to
	// take a backend out of / back into rotation (default 2 / 2).
	FailAfter, RiseAfter int
	// Timeout bounds each forwarded attempt (default 10s).
	Timeout time.Duration
	// PendingCap bounds the request-id → backend map that keeps POST
	// /observe sticky to the backend that served the prediction
	// (default 16384, FIFO eviction).
	PendingCap int
	// MaxBodyBytes caps inbound request bodies on /predict and /observe
	// (default 4 MiB, matching serve). Oversized bodies answer 413 before
	// any bytes are forwarded.
	MaxBodyBytes int64
	// Trace sizes the tail-sampled trace store behind GET /traces: every
	// routed request's span tree (root + one span per forward attempt +
	// the backend's stitched stage spans) is offered to it on completion.
	// Zero-value fields get the obs.TraceStoreConfig defaults.
	Trace obs.TraceStoreConfig

	// Obs is the metrics registry the proxy instruments itself into; nil
	// gets a private registry. Served (merged with the fleet's) at /metrics.
	Obs *obs.Registry
	// Logger receives structured events (backend state flips, failovers).
	// Nil discards them.
	Logger *slog.Logger
	// EnablePprof mounts /debug/pprof/ on the proxy mux.
	EnablePprof bool
	// HTTP overrides the forwarding client (tests); nil builds one from
	// Timeout.
	HTTP *http.Client
}

// Proxy is the routing front tier. Create with New, start health probing
// with Start, and serve it as an http.Handler.
type Proxy struct {
	cfg      Config
	backends []*Backend
	ring     *ring
	health   *health
	client   *http.Client
	mux      *http.ServeMux
	reg      *obs.Registry
	log      *slog.Logger

	totalInflight atomic.Int64

	// sticky maps request ids of proxied predictions to the backend that
	// served them, so a later POST /observe lands on the process holding
	// the pending entry: the last PendingCap of them, in the bounded map
	// serve keeps its own pending predictions in.
	sticky *serve.IDMap[*Backend]

	served, shed, failed *obs.Counter
	retries, failovers   *obs.Counter
	rehomed              *obs.Counter
	scrapeErrors         *obs.Counter
	stickyMiss           *obs.Counter

	// Self-latency instrumentation: where the proxy's own tail lives —
	// end-to-end by outcome, per forward attempt, and backoff waits.
	latServed, latShed, latFailed *obs.Histogram
	attemptOK, attemptErr         *obs.Histogram
	backoffWait                   *obs.Histogram

	// traces retains completed span trees with tail-based sampling,
	// served at GET /traces and GET /traces/{id}.
	traces *obs.TraceStore

	// wire is the binary-protocol front; nil without WireBackends.
	wire *wireFront

	healthCancel         context.CancelFunc
	healthDone           chan struct{}
	startOnce, closeOnce sync.Once
}

// New builds a proxy over cfg.Backends. It panics on an empty backend
// list — a front tier with nothing behind it is a configuration error,
// not a runtime state.
func New(cfg Config) *Proxy {
	if len(cfg.Backends) == 0 {
		panic("proxy: no backends configured")
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = 64
	}
	if cfg.LoadFactor == 0 {
		cfg.LoadFactor = 1.25
	}
	if cfg.Retries <= 0 {
		cfg.Retries = len(cfg.Backends) - 1
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 5 * time.Millisecond
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 256 * len(cfg.Backends)
	}
	if cfg.CheckInterval <= 0 {
		cfg.CheckInterval = 2 * time.Second
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 2
	}
	if cfg.RiseAfter <= 0 {
		cfg.RiseAfter = 2
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.PendingCap <= 0 {
		cfg.PendingCap = 16384
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = serve.DefaultMaxBodyBytes
	}
	if len(cfg.WireBackends) > 0 && len(cfg.WireBackends) != len(cfg.Backends) {
		panic("proxy: WireBackends must parallel Backends one-to-one")
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.DiscardLogger()
	}
	client := cfg.HTTP
	if client == nil {
		client = &http.Client{Timeout: cfg.Timeout}
	}
	p := &Proxy{
		cfg:    cfg,
		client: client,
		reg:    reg,
		log:    logger,
		sticky: serve.NewIDMap[*Backend](cfg.PendingCap),
	}
	p.served = reg.Counter("env2vec_proxy_requests_total", "Proxied requests by outcome.", obs.Labels{"outcome": "served"})
	p.shed = reg.Counter("env2vec_proxy_requests_total", "Proxied requests by outcome.", obs.Labels{"outcome": "shed"})
	p.failed = reg.Counter("env2vec_proxy_requests_total", "Proxied requests by outcome.", obs.Labels{"outcome": "failed"})
	p.retries = reg.Counter("env2vec_proxy_retries_total", "Forward attempts beyond a request's first.", nil)
	p.failovers = reg.Counter("env2vec_proxy_failovers_total", "Requests served by a backend other than their ring home.", nil)
	p.rehomed = reg.Counter("env2vec_proxy_backend_transitions_total", "Backend liveness flips observed by the health checker.", nil)
	p.scrapeErrors = reg.Counter("env2vec_proxy_fleet_scrape_errors_total", "Backend /metrics//quality scrapes that failed during aggregation.", nil)
	p.stickyMiss = reg.Counter("env2vec_proxy_observe_misses_total", "POST /observe requests whose request id had no recorded backend.", nil)
	reg.GaugeFunc("env2vec_proxy_inflight", "Requests currently being forwarded, pool-wide.", nil, func() float64 { return float64(p.totalInflight.Load()) })
	reg.Gauge("env2vec_proxy_inflight_capacity", "Pool-wide in-flight bound; overflow is shed with 429.", nil).Set(float64(cfg.MaxInflight))
	latHelp := "Proxy self-latency, admission to response, by outcome."
	p.latServed = reg.Histogram("env2vec_proxy_request_latency_ms", latHelp, obs.DefLatencyBuckets, obs.Labels{"outcome": "served"})
	p.latShed = reg.Histogram("env2vec_proxy_request_latency_ms", latHelp, obs.DefLatencyBuckets, obs.Labels{"outcome": "shed"})
	p.latFailed = reg.Histogram("env2vec_proxy_request_latency_ms", latHelp, obs.DefLatencyBuckets, obs.Labels{"outcome": "failed"})
	attHelp := "Per-forward-attempt latency, by transport outcome."
	p.attemptOK = reg.Histogram("env2vec_proxy_attempt_latency_ms", attHelp, obs.DefLatencyBuckets, obs.Labels{"outcome": "ok"})
	p.attemptErr = reg.Histogram("env2vec_proxy_attempt_latency_ms", attHelp, obs.DefLatencyBuckets, obs.Labels{"outcome": "error"})
	p.backoffWait = reg.Histogram("env2vec_proxy_backoff_wait_ms", "Backoff slept between one request's forward attempts.", obs.DefLatencyBuckets, nil)
	p.traces = obs.NewTraceStore(cfg.Trace, reg)

	for i, url := range cfg.Backends {
		url = strings.TrimRight(url, "/")
		b := &Backend{URL: url, name: backendName(url)}
		b.nameValue = []string{b.name}
		b.predict, b.observe = parseTarget(url+"/predict"), parseTarget(url+"/observe")
		if len(cfg.WireBackends) > 0 {
			b.wireAddr = cfg.WireBackends[i]
			b.idle = make(chan *wire.Client, wirePoolIdleCap)
		}
		b.alive.Store(true) // optimistic until the first probe pass
		lbls := obs.Labels{"backend": b.name}
		b.latency = reg.Histogram("env2vec_proxy_backend_latency_ms", "Forward latency per backend.", obs.DefLatencyBuckets, lbls)
		b.served = reg.Counter("env2vec_proxy_backend_requests_total", "Requests forwarded per backend, by outcome.", obs.Labels{"backend": b.name, "outcome": "served"})
		b.failed = reg.Counter("env2vec_proxy_backend_requests_total", "Requests forwarded per backend, by outcome.", obs.Labels{"backend": b.name, "outcome": "failed"})
		b.probes = reg.Counter("env2vec_proxy_backend_probes_total", "Health probes per backend.", lbls)
		reg.GaugeFunc("env2vec_proxy_backend_up", "1 when the backend is in rotation.", lbls, func() float64 {
			if b.Alive() {
				return 1
			}
			return 0
		})
		reg.GaugeFunc("env2vec_proxy_backend_inflight", "In-flight forwards per backend.", lbls, func() float64 { return float64(b.Inflight()) })
		p.backends = append(p.backends, b)
	}
	if len(cfg.WireBackends) > 0 {
		p.wire = newWireFront(p)
	}
	p.ring = newRing(p.backends, cfg.VNodes)
	p.health = &health{
		backends:    p.backends,
		client:      client,
		interval:    cfg.CheckInterval,
		fail:        cfg.FailAfter,
		rise:        cfg.RiseAfter,
		transitions: p.rehomed,
		onChange: func(b *Backend, alive bool) {
			if alive {
				logger.Info("backend rejoined; its environment slice re-homes back", "backend", b.name)
			} else {
				logger.Warn("backend down; its environment slice re-homes clockwise", "backend", b.name)
			}
		},
	}

	p.mux = http.NewServeMux()
	p.mux.HandleFunc("/predict", p.handlePredict)
	p.mux.HandleFunc("/observe", p.handleObserve)
	p.mux.HandleFunc("/quality", p.handleQuality)
	p.mux.HandleFunc("/metrics", p.handleMetrics)
	p.mux.HandleFunc("/statz", p.handleStatz)
	p.mux.HandleFunc("/fleet", p.handleFleet)
	p.mux.HandleFunc("/healthz", p.handleHealthz)
	p.mux.HandleFunc("/readyz", p.handleHealthz) // same truth at the proxy: routable backends exist
	p.mux.Handle("/traces", p.traces)
	p.mux.Handle("/traces/", p.traces)
	if cfg.EnablePprof {
		obs.RegisterPprof(p.mux)
	}
	return p
}

// Start launches the health-probe loop (an immediate pass, then every
// CheckInterval). Without Start the proxy still routes, optimistically
// treating every backend as alive until forwards fail.
func (p *Proxy) Start() {
	p.startOnce.Do(func() {
		ctx, cancel := context.WithCancel(context.Background())
		p.healthCancel = cancel
		p.healthDone = make(chan struct{})
		go func() {
			defer close(p.healthDone)
			p.health.run(ctx)
		}()
	})
}

// Close stops the health loop and tears down the wire front (listeners,
// spliced streams, idle backend connections). In-flight HTTP forwards
// complete on their own.
func (p *Proxy) Close() {
	p.closeOnce.Do(func() {
		if p.healthCancel != nil {
			p.healthCancel()
			<-p.healthDone
		}
		if p.wire != nil {
			p.wire.close()
		}
	})
}

// route appends to dst the preference-ordered live candidates for the ring
// position h, at most 1+Retries of them: the position's home first
// (bounded-load permitting), then its deterministic failover order. A
// backend past the load bound is demoted, not dropped — affinity yields to
// survival, never to a 5xx.
func (p *Proxy) route(dst []*Backend, h uint64) []*Backend {
	alive := p.ring.order(dst, h)
	n := 0
	for _, b := range alive {
		if b.Alive() {
			alive[n] = b
			n++
		}
	}
	alive = alive[:n]
	if len(alive) == 0 {
		return nil
	}
	// Bounded load (CHWBL): spill a key off its home only while admitting
	// it would push the home past c·avg — the overflow target is the next
	// backend clockwise, so spill is deterministic too.
	if c := p.cfg.LoadFactor; c > 1 {
		bound := int64(math.Ceil(c * float64(p.totalInflight.Load()+1) / float64(len(alive))))
		for i, b := range alive {
			if b.Inflight()+1 <= bound {
				if i > 0 {
					alive[0], alive[i] = alive[i], alive[0]
				}
				break
			}
		}
	}
	if max := 1 + p.cfg.Retries; len(alive) > max {
		alive = alive[:max]
	}
	return alive
}

// ServeHTTP implements http.Handler.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) { p.mux.ServeHTTP(w, r) }

// predictKey is the slice of the /predict body the router needs.
type predictKey struct {
	// testbed, sut, testcase, build: a JSON key matches its field whatever
	// the case.
	envmeta.Environment
	RequestID string `json:"request_id"`
}

func (p *Proxy) handlePredict(w http.ResponseWriter, r *http.Request) {
	var key predictKey
	body, ok := p.readPost(w, r, &key, http.Error)
	if !ok {
		return
	}
	reqID := r.Header.Get(obs.RequestIDHeader)
	if reqID == "" {
		reqID = key.RequestID
	}
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	// The JSON adapter owns only its transport: the POST that tries one
	// backend, the body the kept trace's backend spans are parsed out of, and
	// the relay of whatever the core settled on.
	var hdr http.Header
	resp := getBuffer()
	defer putBuffer(resp)
	b, code, msg := p.forward(envHash(key.Environment), "/predict", reqID, 0,
		func(b *Backend, attemptSpanID string) (status int, err error) {
			status, hdr, err = p.post(b.predict, body, reqID, attemptSpanID, resp)
			return status, err
		},
		func(dst []byte) ([]byte, int) {
			spans := backendSpans(resp.Bytes())
			return obs.AppendSpans(dst, spans), len(spans)
		})
	if b == nil {
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		http.Error(w, msg, code)
		return
	}
	if code < 300 {
		p.sticky.Put(reqID, b)
	}
	relay(w, code, hdr, resp.Bytes(), b)
}

func (p *Proxy) handleObserve(w http.ResponseWriter, r *http.Request) {
	var req struct {
		RequestID string `json:"request_id"`
	}
	body, ok := p.readPost(w, r, &req, jsonError)
	if !ok {
		return
	}
	if req.RequestID == "" {
		// Not a miss: there is no id to have recorded. 400 with the
		// backend's own answer to the same request.
		jsonError(w, "request_id is required", http.StatusBadRequest)
		return
	}
	b, ok := p.sticky.Take(req.RequestID)
	if !ok || !b.Alive() {
		// The prediction's backend is unknown (evicted, proxy restart) or
		// gone; its pending entry died with it. 404 matches the backend's
		// own unknown-id answer.
		p.stickyMiss.Inc()
		jsonError(w, "unknown or expired request id", http.StatusNotFound)
		return
	}
	var hdr http.Header
	resp := getBuffer()
	defer putBuffer(resp)
	status, _, err := p.attempt(b, req.RequestID, "", func(b *Backend, _ string) (status int, err error) {
		status, hdr, err = p.post(b.observe, body, req.RequestID, "", resp)
		return status, err
	})
	if err != nil {
		jsonError(w, "backend "+b.name+": "+err.Error(), http.StatusBadGateway)
		return
	}
	relay(w, status, hdr, resp.Bytes(), b)
}

// backendSpans extracts the backend's span tree from a forwarded response
// body. Nil on bodies without one (errors, /observe) — stitching is
// best-effort by design.
func backendSpans(body []byte) []obs.Span {
	var resp struct {
		Trace struct {
			Spans []obs.Span `json:"spans"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil
	}
	return resp.Trace.Spans
}

// post is the JSON transport's try: one POST of body to one backend's URL,
// returning its status and headers, its body read into reply. Transport
// errors are returned as err. parentSpanID, when set, rides the
// traceparent header so the backend's spans parent onto the attempt that
// carried them. The request is built as http.NewRequest builds it, on the
// URL parsed when the backend was configured, its header keys set in
// canonical form.
func (p *Proxy) post(to target, body []byte, reqID, parentSpanID string, reply *bytes.Buffer) (int, http.Header, error) {
	if to.err != nil {
		return 0, nil, to.err
	}
	u := to.u
	hdr := http.Header{"Content-Type": jsonContentType}
	if reqID != "" {
		hdr[obs.RequestIDHeader] = []string{reqID}
		if parentSpanID != "" {
			hdr[obs.TraceParentHeader] = []string{obs.FormatTraceParent(reqID, parentSpanID)}
		}
	}
	req := &http.Request{
		Method: http.MethodPost, URL: u, Host: u.Host, Header: hdr,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		// A NopCloser'd bytes.Reader is a body net/http knows to be in
		// memory: the head and the body go out in one write.
		Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body)),
		GetBody: func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil },
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	// Error-status bodies are relayed for their message, nothing more — a
	// misbehaving backend must not be able to balloon the proxy's memory
	// with a gigabyte of 500 page. Success bodies carry predictions and
	// span trees and are read in full.
	src := io.Reader(resp.Body)
	if resp.StatusCode >= 300 {
		src = io.LimitReader(resp.Body, maxErrorBodyBytes)
	}
	reply.Reset()
	if _, err := reply.ReadFrom(src); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, resp.Header, nil
}

// jsonContentType is the Content-Type value of every JSON POST, shared: a
// header value slice is replaced by a Set, never written through.
var jsonContentType = []string{"application/json"}

// relay writes a backend response through to the client, preserving the
// trace header and stamping which backend served it. The backend's value
// slices are the client's: a header never writes through one.
func relay(w http.ResponseWriter, status int, hdr http.Header, body []byte, b *Backend) {
	out := w.Header()
	for _, k := range [...]string{"Content-Type", obs.RequestIDHeader, "Retry-After"} {
		if v := hdr[k]; len(v) > 0 && v[0] != "" {
			out[k] = v[:1:1]
		}
	}
	out["X-Backend"] = b.nameValue
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// bodyBufs holds the buffers backends' replies are read into, each while it
// is relayed.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuffer() *bytes.Buffer { return bodyBufs.Get().(*bytes.Buffer) }

// putBuffer returns b to the pool unless one outsized body grew it.
func putBuffer(b *bytes.Buffer) {
	if b.Cap() <= 64<<10 {
		b.Reset()
		bodyBufs.Put(b)
	}
}

// handleStatz forwards /statz to the first live backend: load generators
// discover the served model's shape through the proxy exactly as they
// would against a single instance. The fleet's own state lives at /fleet.
func (p *Proxy) handleStatz(w http.ResponseWriter, r *http.Request) {
	for _, b := range p.backends {
		if !b.Alive() {
			continue
		}
		resp, err := p.client.Get(b.URL + "/statz")
		if err != nil {
			p.health.reportFailure(b)
			continue
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			continue
		}
		relay(w, resp.StatusCode, resp.Header, body, b)
		return
	}
	jsonError(w, "no live backends", http.StatusServiceUnavailable)
}

// FleetState is the GET /fleet payload: the proxy's routing view.
type FleetState struct {
	Backends  []BackendState `json:"backends"`
	Live      int            `json:"live"`
	Inflight  int64          `json:"inflight"`
	Served    uint64         `json:"served"`
	Shed      uint64         `json:"shed"`
	Failed    uint64         `json:"failed"`
	Retries   uint64         `json:"retries"`
	Failovers uint64         `json:"failovers"`
}

// BackendState is one backend's routing view.
type BackendState struct {
	Backend  string  `json:"backend"`
	URL      string  `json:"url"`
	Alive    bool    `json:"alive"`
	Inflight int64   `json:"inflight"`
	Served   uint64  `json:"served"`
	Failed   uint64  `json:"failed"`
	P50MS    float64 `json:"p50_latency_ms"`
	P99MS    float64 `json:"p99_latency_ms"`
}

func (p *Proxy) handleFleet(w http.ResponseWriter, r *http.Request) {
	st := FleetState{
		Inflight:  p.totalInflight.Load(),
		Served:    p.served.Value(),
		Shed:      p.shed.Value(),
		Failed:    p.failed.Value(),
		Retries:   p.retries.Value(),
		Failovers: p.failovers.Value(),
	}
	for _, b := range p.backends {
		qs := b.latency.Quantiles(0.50, 0.99)
		bs := BackendState{
			Backend: b.name, URL: b.URL, Alive: b.Alive(),
			Inflight: b.Inflight(), Served: b.served.Value(), Failed: b.failed.Value(),
			P50MS: qs[0], P99MS: qs[1],
		}
		if bs.Alive {
			st.Live++
		}
		st.Backends = append(st.Backends, bs)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(st)
}

func (p *Proxy) handleHealthz(w http.ResponseWriter, r *http.Request) {
	for _, b := range p.backends {
		if b.Alive() {
			fmt.Fprintln(w, "ok")
			return
		}
	}
	http.Error(w, "no live backends", http.StatusServiceUnavailable)
}

// maxErrorBodyBytes caps how much of a backend's error-status body the
// proxy reads before relaying it.
const maxErrorBodyBytes = 64 << 10

// readPost admits one POST: the body, read under the configured cap, and
// its routing slice decoded into v. A refusal — wrong method, unreadable or
// oversized body (413; MaxBytesReader has already stamped Connection: close
// on the response), invalid JSON — has been answered through fail.
func (p *Proxy) readPost(w http.ResponseWriter, r *http.Request, v any, fail func(w http.ResponseWriter, msg string, code int)) ([]byte, bool) {
	if r.Method != http.MethodPost {
		fail(w, "method not allowed", http.StatusMethodNotAllowed)
		return nil, false
	}
	// One slice, not pooled: a transport may still read a POST's body after
	// RoundTrip returns. It is sized up front by the Content-Length, but
	// never past maxPresizedBody: a client that declares megabytes and
	// sends nothing must not hold megabytes of the proxy's memory. A larger
	// body grows the buffer as its bytes arrive.
	var buf bytes.Buffer
	if n := min(r.ContentLength, p.cfg.MaxBodyBytes, maxPresizedBody); n > 0 {
		buf.Grow(int(n) + bytes.MinRead) // the read that finds EOF needs MinRead free
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, p.cfg.MaxBodyBytes))
	if err != nil {
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		fail(w, "read body: "+err.Error(), status)
		return nil, false
	}
	body := buf.Bytes()
	if err := json.Unmarshal(body, v); err != nil {
		fail(w, "invalid request: "+err.Error(), http.StatusBadRequest)
		return nil, false
	}
	return body, true
}

// maxPresizedBody bounds what readPost allocates for a body before any of
// it arrives: well above a real /predict or /observe body (a few KiB).
const maxPresizedBody = 64 << 10

// jsonError mirrors serve's error body shape, with http.Error's signature.
func jsonError(w http.ResponseWriter, msg string, code int) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
