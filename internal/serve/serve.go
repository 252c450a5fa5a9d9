package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand/v2"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"env2vec/internal/anomaly"
	"env2vec/internal/envmeta"
	"env2vec/internal/nn"
	"env2vec/internal/obs"
	"env2vec/internal/quality"
	"env2vec/internal/stats"
	"env2vec/internal/tensor"
)

// Config sizes the prediction service.
type Config struct {
	// MaxBatch caps how many queued requests one forward pass may combine
	// (default 32). A free worker takes whatever is queued up to this many,
	// so passes grow only while every worker is busy.
	MaxBatch int
	// Deprecated: ignored. No request waits for company any more; the
	// field stays declared because bench/stack.go sets it by name.
	MaxLinger time.Duration
	// QueueDepth bounds the admission queue; requests arriving with the
	// queue full are rejected with 429 (default 256).
	QueueDepth int
	// Workers is the number of concurrent forward-pass workers
	// (default GOMAXPROCS).
	Workers int
	// Detect enables inline anomaly verdicts for requests that carry the
	// observed value: the per-chain prediction-error distribution is
	// maintained online and each error is thresholded at γ·σ plus the
	// absolute filter, as in §3.2. Nil disables verdicts.
	Detect *anomaly.Config
	// MinCalibration is how many error samples a chain needs before
	// verdicts fire (default 8); until then responses carry no verdict.
	MinCalibration int

	// Quality, when non-nil, enables the online model-quality monitor:
	// every observed request (inline Actual or follow-up POST /observe)
	// feeds per-environment rolling error statistics that are compared
	// against the bundle's training-time baseline; sustained drift raises
	// alarms. The monitor also serves GET /quality.
	Quality *quality.Config
	// AlarmSink, when non-nil, receives the monitor's drift alarms through
	// an async bounded queue with quality.AsyncConfig's default depth,
	// retries and backoff. Nil keeps alarms local: counted, reported at
	// /quality, but delivered nowhere.
	AlarmSink quality.Sink
	// PendingCap bounds the request-id → prediction map backing POST
	// /observe (default 4096). Oldest entries are evicted first; observing
	// an evicted id returns 404.
	PendingCap int

	// MaxBodyBytes caps how much of a request body the JSON handlers will
	// read (≤ 0 means DefaultMaxBodyBytes, 4 MiB). Oversized bodies are
	// rejected with 413 instead of being buffered to OOM.
	MaxBodyBytes int64

	// Trace sizes the tail-sampled trace store behind GET /traces: every
	// HTTP request's span tree is offered to it on completion, and failed,
	// shed, or slow traces are retained preferentially. Zero-value fields
	// get the obs.TraceStoreConfig defaults.
	Trace obs.TraceStoreConfig

	// Obs, when non-nil, is the metrics registry the server instruments
	// itself into; nil gets a private registry. Either way the metrics are
	// served at GET /metrics in Prometheus text format.
	Obs *obs.Registry
	// Logger receives structured request-path events (shed requests, panic
	// recoveries, model swaps). Nil discards them.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the server's
	// mux. Off by default: profiles expose internals.
	EnablePprof bool

	// stall, when non-nil, blocks every forward pass until the channel is
	// closed. Tests use it to hold workers busy deterministically.
	stall chan struct{}
}

// Request is one per-timestep prediction request.
type Request struct {
	CF     []float64 `json:"cf"`     // contextual features, model-In long
	Window []float64 `json:"window"` // previous RU values, oldest first, model-Window long

	// Environment tuple; unseen values fall back to the learned <unk>
	// embedding rows (the §4.3 capability).
	Testbed  string `json:"testbed"`
	SUT      string `json:"sut"`
	Testcase string `json:"testcase"`
	Build    string `json:"build"`

	// Actual, when set, is the observed RU value for this timestep and
	// requests an inline anomaly verdict against the chain's error model.
	Actual *float64 `json:"actual,omitempty"`
	// ChainID keys the online error model; defaults to the environment
	// tuple rendered as a string.
	ChainID string `json:"chain_id,omitempty"`

	// RequestID is the trace id for this request. The HTTP handler fills it
	// from an inbound X-Request-Id header; when still empty at admission,
	// Do generates one. It is echoed in the response trace block (and the
	// X-Request-Id response header on the HTTP path).
	RequestID string `json:"request_id,omitempty"`

	// TraceParent carries the caller's traceparent-style propagation header
	// (see obs.TraceParentHeader): the server's spans parent onto the named
	// caller-side span, so a front tier can stitch this process's stage
	// spans into its own trace tree. Header-only — never part of the body.
	TraceParent string `json:"-"`
}

// Response is the service's answer for one request.
type Response struct {
	Prediction   float64  `json:"prediction"`
	Model        string   `json:"model"`
	ModelVersion int      `json:"model_version"`
	BatchSize    int      `json:"batch_size"` // size of the forward pass that served this request
	Anomalous    *bool    `json:"anomalous,omitempty"`
	Deviation    *float64 `json:"deviation,omitempty"` // |prediction−actual|, with a verdict
	// Quality is the model-quality monitor's verdict, present when the
	// monitor is enabled and the request carried an inline Actual.
	Quality *quality.Verdict `json:"quality,omitempty"`

	// Record is the worker's account of how the request was served. The
	// JSON reply renders it as its last member, the trace block
	// {"request_id", "spans"} (appendTraceBlock); the wire reply as its span
	// section (AppendSpanSection).
	Record StageRecord `json:"-"`
}

// StageRecord is what a worker leaves behind for a served request instead of
// a span tree: one fixed-size value — no ids, no maps, no strings. Every
// rendering of the request's spans is made from it, where someone reads
// them: the wire reply's span section and a kept trace (both through
// appendSection), the JSON reply's trace block (through appendTraceBlock). They
// all name the same spans, because span ids derive from Seed.
type StageRecord struct {
	Enqueue    time.Time // admission into the queue
	Pickup     time.Time // a worker pulled the request: queue wait ends, the forward stage opens
	ForwardEnd time.Time // the shared forward pass returned
	BatchID    uint64    // forward pass that served this request
	BatchSize  int
	// Seed is one random draw; the spans' ids are Seed, Seed+1, … in tree
	// order (obs.AppendID). They key nothing and only have to differ within
	// a trace.
	Seed uint64
	// Kept reports that the server's trace store retained this request's
	// trace, so an adapter with a later stage (JSON encoding) knows to
	// store the longer tree over it.
	Kept bool
}

// recordSpans is how many spans a StageRecord renders as: the root and its
// two stages. The JSON reply's rendering adds a third stage, serve.encode.
const recordSpans = 3

// AppendSpanSection renders the record as the span section (obs's span
// codec) of the request it served: three spans, ids derived from Seed,
// attributes in key order, the root parented onto the span traceParent
// names (a fresh root when it names none) — without building the tree.
func (r *StageRecord) AppendSpanSection(dst []byte, traceParent string) []byte {
	return r.appendSection(dst, traceParent, time.Time{}, time.Time{})
}

// appendSection is AppendSpanSection, with the JSON path's encode stage
// from encStart to encEnd as a fourth span when encStart is set: the root
// then covers it too, as the JSON reply's trace block says.
func (r *StageRecord) appendSection(dst []byte, traceParent string, encStart, encEnd time.Time) []byte {
	_, parent, _ := obs.ParseTraceParent(traceParent)
	var id, root [16]byte
	rootID := string(obs.AppendID(root[:0], r.Seed)) // stays on the stack: the section gets copies
	spans, rootMS := byte(recordSpans), obs.MS(r.ForwardEnd.Sub(r.Enqueue))
	if !encStart.IsZero() {
		spans, rootMS = recordSpans+1, rootMS+obs.MS(encEnd.Sub(encStart))
	}
	dst = append(dst, spans)
	dst = obs.AppendSpan(dst, rootID, parent, "serve.request", r.Enqueue.UnixMicro(), rootMS, 1)
	dst = obs.AppendAttr(dst, "outcome", obs.OutcomeServed)
	dst = obs.AppendSpan(dst, string(obs.AppendID(id[:0], r.Seed+1)), rootID, "serve.queue_wait", r.Enqueue.UnixMicro(), obs.MS(r.Pickup.Sub(r.Enqueue)), 0)
	dst = obs.AppendSpan(dst, string(obs.AppendID(id[:0], r.Seed+2)), rootID, "serve.forward", r.Pickup.UnixMicro(), obs.MS(r.ForwardEnd.Sub(r.Pickup)), 2)
	var num [20]byte
	dst = obs.AppendAttr(dst, "batch_id", string(strconv.AppendUint(num[:0], r.BatchID, 10)))
	dst = obs.AppendAttr(dst, "batch_size", string(strconv.AppendInt(num[:0], int64(r.BatchSize), 10)))
	if !encStart.IsZero() {
		dst = obs.AppendSpan(dst, string(obs.AppendID(id[:0], r.Seed+3)), rootID, "serve.encode", encStart.UnixMicro(), obs.MS(encEnd.Sub(encStart)), 0)
	}
	return dst
}

// item is one in-flight request inside the batching machinery. The caller
// owns its storage (Do one, DoBatch a slab per frame) and reads it back
// only after wg has counted every item of the call down.
type item struct {
	req  *Request
	enq  time.Time // admission into the queue
	resp *Response // where the worker writes the answer
	code int
	err  error
	// answered is the worker's own note that it has counted the item down,
	// so a panicking pass answers each of its items exactly once.
	answered bool
	wg       *sync.WaitGroup
}

// calibration is an online Gaussian (Welford) over a chain's prediction
// errors — the serving-time analogue of anomaly.FitErrorModel.
type calibration struct {
	n        int
	mean, m2 float64
}

func (c *calibration) add(e float64) {
	c.n++
	d := e - c.mean
	c.mean += d / float64(c.n)
	c.m2 += d * (e - c.mean)
}

func (c *calibration) sigma() float64 {
	if c.n == 0 {
		return 0
	}
	return math.Sqrt(c.m2 / float64(c.n))
}

// Server micro-batches concurrent prediction requests into shared forward
// passes. Create with New, feed it bundles with SetBundle, and shut down
// with Close (which drains in-flight work).
type Server struct {
	cfg       Config
	bundle    atomic.Pointer[Bundle]
	queue     *queue
	mux       *http.ServeMux
	wg        sync.WaitGroup
	closeOnce sync.Once
	reg       *obs.Registry
	log       *slog.Logger

	batchSeq                          atomic.Uint64 // forward passes executed; also issues batch ids
	served, rejected, failed, reloads *obs.Counter
	batchSizes                        *obs.Histogram
	latency                           *obs.Histogram // total admission→response
	stageQueue, stageFwd, stageEncode *obs.Histogram

	calMu sync.Mutex
	cal   map[string]*calibration

	// Model-quality monitoring (nil when Config.Quality is nil).
	monitor *quality.Monitor
	pusher  *quality.Async

	// traces retains completed span trees with tail-based sampling,
	// served at GET /traces and GET /traces/{id}.
	traces *obs.TraceStore

	// pending maps request ids of unobserved predictions to what POST
	// /observe needs to close the loop, the last PendingCap of them (nil
	// when Config.Quality is nil).
	pending *IDMap[pendingPrediction]
}

// pendingPrediction is one served prediction awaiting ground truth.
type pendingPrediction struct {
	env  envmeta.Environment
	pred float64
}

// New starts the worker goroutines and returns a server with no model
// loaded yet (healthz reports 503 until SetBundle).
func New(cfg Config) *Server {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 32
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MinCalibration <= 0 {
		cfg.MinCalibration = 8
	}
	if cfg.PendingCap <= 0 {
		cfg.PendingCap = 4096
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.Detect != nil && cfg.Detect.Gamma <= 0 {
		panic(fmt.Sprintf("serve: detection gamma must be positive, got %v", cfg.Detect.Gamma))
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.DiscardLogger()
	}
	s := &Server{
		cfg:   cfg,
		queue: newQueue(cfg.QueueDepth),
		cal:   make(map[string]*calibration),
		reg:   reg,
		log:   logger,
	}
	s.served = reg.Counter("env2vec_serve_requests_total", "Prediction requests by outcome.", obs.Labels{"outcome": "served"})
	s.rejected = reg.Counter("env2vec_serve_requests_total", "Prediction requests by outcome.", obs.Labels{"outcome": "rejected"})
	s.failed = reg.Counter("env2vec_serve_requests_total", "Prediction requests by outcome.", obs.Labels{"outcome": "failed"})
	s.reloads = reg.Counter("env2vec_serve_model_reloads_total", "Hot model swaps after the initial load.", nil)
	reg.CounterFunc("env2vec_serve_batches_total", "Forward-pass batches executed.", nil, s.batchSeq.Load)
	s.batchSizes = reg.Histogram("env2vec_serve_batch_size", "Requests combined per forward pass.", batchBounds, nil)
	s.latency = reg.Histogram("env2vec_serve_request_latency_ms", "End-to-end latency, admission to response.", obs.DefLatencyBuckets, nil)
	stageHelp := "Per-stage request latency; stage attributes where time went."
	s.stageQueue = reg.Histogram("env2vec_serve_stage_latency_ms", stageHelp, obs.DefLatencyBuckets, obs.Labels{"stage": "queue_wait"})
	s.stageFwd = reg.Histogram("env2vec_serve_stage_latency_ms", stageHelp, obs.DefLatencyBuckets, obs.Labels{"stage": "forward"})
	s.stageEncode = reg.Histogram("env2vec_serve_stage_latency_ms", stageHelp, obs.DefLatencyBuckets, obs.Labels{"stage": "encode"})
	reg.GaugeFunc("env2vec_serve_queue_depth", "Requests waiting in the admission queue.", nil, func() float64 { return float64(s.queue.len()) })
	reg.Gauge("env2vec_serve_queue_capacity", "Admission queue bound; overflow is shed with 429.", nil).Set(float64(cfg.QueueDepth))
	reg.Gauge("env2vec_serve_workers", "Concurrent forward-pass workers.", nil).Set(float64(cfg.Workers))
	reg.GaugeFunc("env2vec_serve_model_version", "Version of the bundle currently served (0 = none).", nil, func() float64 {
		if b := s.bundle.Load(); b != nil {
			return float64(b.Version)
		}
		return 0
	})
	reg.GaugeFunc("env2vec_infer_precision", "Bits of the serving forward pass: 64 (float64) or 32 (float32); 0 = no bundle.", nil, func() float64 {
		if b := s.bundle.Load(); b != nil {
			if b.ActivePrecision() == PrecisionFloat32 {
				return 32
			}
			return 64
		}
		return 0
	})
	if cfg.Quality != nil {
		if cfg.AlarmSink != nil {
			s.pusher = quality.NewAsync(cfg.AlarmSink, quality.AsyncConfig{Logger: logger}, reg)
		}
		s.monitor = quality.NewMonitor(*cfg.Quality, reg, s.pusher)
		s.pending = NewIDMap[pendingPrediction](cfg.PendingCap)
	}
	s.traces = obs.NewTraceStore(cfg.Trace, reg)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/predict", s.handlePredict)
	s.mux.Handle("/traces", s.traces)
	s.mux.Handle("/traces/", s.traces)
	s.mux.HandleFunc("/observe", s.handleObserve)
	s.mux.HandleFunc("/quality", s.handleQuality)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/statz", s.handleStatz)
	s.mux.Handle("/metrics", reg)
	if cfg.EnablePprof {
		obs.RegisterPprof(s.mux)
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// SetBundle atomically swaps in a new model version; in-flight batches keep
// the bundle they loaded, new batches see the new one. Zero downtime.
func (s *Server) SetBundle(b *Bundle) {
	if b == nil {
		panic("serve: SetBundle(nil)")
	}
	if old := s.bundle.Swap(b); old != nil {
		s.reloads.Inc()
		s.log.Info("model swapped", "model", b.Name, "version", b.Version, "previous_version", old.Version)
	} else {
		s.log.Info("model loaded", "model", b.Name, "version", b.Version)
	}
	if s.monitor != nil {
		s.monitor.SetBaseline(b.Baseline)
	}
}

// Bundle returns the currently served model bundle (nil before the first
// SetBundle).
func (s *Server) Bundle() *Bundle { return s.bundle.Load() }

// Close stops admission, drains every queued request through the workers,
// and waits for them to finish. Safe to call once.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.queue.close()
		s.wg.Wait()
		if s.pusher != nil {
			s.pusher.Close() // drain queued alarms after the last batch ran
		}
	})
}

// Errors distinguishing Do outcomes; the HTTP handler maps them to codes.
var (
	ErrOverloaded = errors.New("serve: queue full")
	ErrNoModel    = errors.New("serve: no model loaded")
	ErrClosed     = errors.New("serve: server shutting down")
	// ErrNonFinite refuses a value that is not a number anyone can act on.
	// A NaN or ±Inf input — JSON cannot carry one, the binary protocol can —
	// is refused at admission (400), so it never reaches a forward pass
	// shared with other requests. A finite input the model answers with NaN
	// or ±Inf — a magnitude beyond float32 narrows to ±Inf inside the frozen
	// path, and Inf·0 in the GRU is NaN — is refused after the pass (422):
	// that item fails alone, its neighbours in the pass are served.
	ErrNonFinite = errors.New("serve: non-finite value")
)

// Do submits one request and blocks until a worker has served it (or it was
// rejected). It returns the response and an HTTP-shaped status code; this is
// also the non-HTTP entry point the benchmarks drive.
func (s *Server) Do(req *Request) (*Response, int, error) {
	c := &struct { // the request's one allocation
		items [1]item
		resp  Response
		wg    sync.WaitGroup
	}{}
	it := &c.items[0]
	it.req, it.enq, it.resp, it.wg = req, time.Now(), &c.resp, &c.wg
	s.admit(c.items[:])
	c.wg.Wait()
	if it.err != nil {
		return nil, it.code, it.err
	}
	return it.resp, it.code, nil
}

// BatchResult is one request's outcome in a DoBatch call.
type BatchResult struct {
	Resp *Response
	Code int
	Err  error
}

// DoBatch submits many requests in one admission pass and waits for all of
// them. The valid ones enter the queue Do uses under a single lock
// acquisition, so a free worker sees the whole frame at once: a wire batch
// of at most MaxBatch windows is exactly one forward pass, with no
// re-marshal between transport and batching. Each request is still admitted
// (or refused) on its own: an invalid request fails alone, and queue
// overflow sheds the tail of the batch, not the whole thing. The frame is
// admitted on one slab of items and answered into one slab of responses,
// with one completion for all of it, so what the call allocates does not
// depend on how many requests it carries.
func (s *Server) DoBatch(reqs []*Request) []BatchResult {
	results := make([]BatchResult, len(reqs))
	f := &struct {
		items []item
		resps []Response
		wg    sync.WaitGroup
	}{items: make([]item, len(reqs)), resps: make([]Response, len(reqs))}
	now := time.Now()
	for i, req := range reqs {
		f.items[i] = item{req: req, enq: now, resp: &f.resps[i], wg: &f.wg}
	}
	s.admit(f.items)
	f.wg.Wait()
	for i := range f.items {
		if it := &f.items[i]; it.err != nil {
			results[i] = BatchResult{Code: it.code, Err: it.err}
		} else {
			results[i] = BatchResult{Resp: it.resp, Code: it.code}
		}
	}
	return results
}

// admit is the way in for every request: each item is validated against the
// loaded bundle, the valid ones are queued under one lock acquisition, and
// the rest are refused on the spot — an invalid request alone, queue
// overflow from the first item that did not fit to the end. The items' wait
// group counts exactly the queued ones, so the caller's Wait returns when a
// worker has answered the last of them (at once, when none got in).
func (s *Server) admit(items []item) {
	if len(items) == 0 {
		return
	}
	b := s.bundle.Load()
	valid := 0
	for i := range items {
		it := &items[i]
		if code, err := check(it.req, b); err != nil {
			s.refuse(it, code, err)
			continue
		}
		valid++
	}
	obs.FillRequestIDs(len(items), func(i int) *string {
		if items[i].err != nil {
			return nil
		}
		return &items[i].req.RequestID
	})
	// Counted before a worker can see them; the refused tail, which no worker
	// ever will, is counted back down.
	wg := items[0].wg
	wg.Add(valid)
	from, why := s.queue.push(items)
	code := http.StatusTooManyRequests
	if errors.Is(why, ErrClosed) {
		code = http.StatusServiceUnavailable
	}
	for i := from; i < len(items); i++ {
		if it := &items[i]; it.err == nil {
			s.refuse(it, code, why)
			wg.Done()
		}
	}
}

// refuse answers a request that never reached a worker. A shed is counted
// and logged; whatever the reason, the refusal leaves a trace.
func (s *Server) refuse(it *item, code int, why error) {
	it.code, it.err = code, why
	if code == http.StatusTooManyRequests {
		s.rejected.Inc()
		s.log.Debug("request shed: queue full", "request_id", it.req.RequestID, "queue_capacity", s.cfg.QueueDepth)
	}
	s.traceFailure(it)
}

// check is what admission and the worker both ask of a request: is there a
// model, and does the request fit it.
func check(req *Request, b *Bundle) (int, error) {
	if b == nil {
		return http.StatusServiceUnavailable, ErrNoModel
	}
	if err := validate(req, b); err != nil {
		return http.StatusBadRequest, err
	}
	return 0, nil
}

func validate(req *Request, b *Bundle) error {
	cfg := b.Model.Config()
	if len(req.CF) != cfg.In {
		return fmt.Errorf("serve: request has %d contextual features, model %s/v%d wants %d", len(req.CF), b.Name, b.Version, cfg.In)
	}
	if len(req.Window) != cfg.Window {
		return fmt.Errorf("serve: request has window %d, model %s/v%d wants %d", len(req.Window), b.Name, b.Version, cfg.Window)
	}
	if !allFinite(req.CF) {
		return fmt.Errorf("%w in cf", ErrNonFinite)
	}
	if !allFinite(req.Window) {
		return fmt.Errorf("%w in window", ErrNonFinite)
	}
	if req.Actual != nil && !finite(*req.Actual) {
		return fmt.Errorf("%w in actual", ErrNonFinite)
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func allFinite(vs []float64) bool {
	for _, v := range vs {
		if !finite(v) {
			return false
		}
	}
	return true
}

// scratch is everything one forward pass needs besides the requests. Each
// worker owns one, sized to MaxBatch once, so what a pass allocates depends
// on how many requests it answers and not on how they were grouped.
type scratch struct {
	items, valid []*item
	batch        nn.Batch
	preds        []float64
	env          envmeta.Environment // the last environment a pending prediction kept, cloned once
	spans        []byte              // a kept trace's stored form, copied by the store
}

func newScratch(maxBatch int) *scratch {
	w := &scratch{
		items: make([]*item, 0, maxBatch),
		valid: make([]*item, 0, maxBatch),
		preds: make([]float64, maxBatch),
	}
	w.batch.EnvIDs = make([][]int, envmeta.NumFeatures)
	for k := range w.batch.EnvIDs {
		w.batch.EnvIDs[k] = make([]int, maxBatch)
	}
	return w
}

// shape sizes the pass's batch to n rows of the model's input widths,
// on storage allocated once unless a reload changed a width.
func (w *scratch) shape(n, in, window int) {
	rows := func(m *tensor.Matrix, cols int) *tensor.Matrix {
		if m == nil || m.Cols != cols {
			m = tensor.New(len(w.preds), cols)
		}
		m.Rows, m.Data = n, m.Data[:n*cols]
		return m
	}
	w.batch.X, w.batch.Window = rows(w.batch.X, in), rows(w.batch.Window, window)
	for k := range w.batch.EnvIDs {
		w.batch.EnvIDs[k] = w.batch.EnvIDs[k][:n]
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	w := newScratch(s.cfg.MaxBatch)
	for {
		items := s.queue.pull(w.items)
		if items == nil {
			return
		}
		s.runBatch(w, items)
	}
}

func envOf(req *Request) envmeta.Environment {
	return envmeta.Environment{Testbed: req.Testbed, SUT: req.SUT, Testcase: req.Testcase, Build: req.Build}
}

// runBatch executes one shared forward pass for the requests a worker just
// pulled: answer each into its caller's storage, record the pass once, and
// only then count the items down — their callers read the instant the count
// reaches zero, so every write comes first. Queue wait ends and the forward
// stage opens here: everything from worker pickup through the shared
// Predict call is attributed to the forward stage.
func (s *Server) runBatch(w *scratch, items []*item) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("serve: forward pass panicked: %v", r)
			s.log.Error("forward pass panicked", "err", r, "batch_size", len(items))
			for _, it := range items {
				if !it.answered {
					s.fail(it, http.StatusInternalServerError, err)
				}
			}
		}
	}()
	if s.cfg.stall != nil {
		<-s.cfg.stall
	}

	// Checked again against the bundle loaded now: a hot reload between
	// admission and execution could (in principle) change the model's shape.
	b := s.bundle.Load()
	valid := w.valid[:0]
	for _, it := range items {
		if code, err := check(it.req, b); err != nil {
			s.fail(it, code, err)
			continue
		}
		valid = append(valid, it)
	}
	if len(valid) == 0 {
		return
	}

	cfg := b.Model.Config()
	n := len(valid)
	w.shape(n, cfg.In, cfg.Window)
	batch := &w.batch
	for i, it := range valid {
		copy(batch.X.Row(i), it.req.CF)
		copy(batch.Window.Row(i), it.req.Window)
		ids := b.Schema.Encode(envOf(it.req))
		for k := range batch.EnvIDs {
			batch.EnvIDs[k][i] = ids[k]
		}
	}
	preds := w.preds[:n]
	b.PredictInto(preds, batch)
	// A prediction that is not finite is not an answer (ErrNonFinite): that
	// item fails, the rest of the pass closes ranks behind it.
	k := 0
	for i, it := range valid {
		if !finite(preds[i]) {
			s.fail(it, http.StatusUnprocessableEntity, fmt.Errorf("%w: the %s model answers %v for this input", ErrNonFinite, b.ActivePrecision(), preds[i]))
			continue
		}
		valid[k], preds[k] = it, preds[i]
		k++
	}
	if valid = valid[:k]; k == 0 {
		return
	}

	batchID := s.batchSeq.Add(1)
	s.batchSizes.Observe(float64(n))
	fwdEnd := time.Now()
	for i, it := range valid {
		*it.resp = Response{
			Prediction: preds[i], Model: b.Name, ModelVersion: b.Version, BatchSize: n,
			Record: StageRecord{
				Enqueue: it.enq, Pickup: start, ForwardEnd: fwdEnd,
				BatchID: batchID, BatchSize: n, Seed: rand.Uint64(),
			},
		}
		if it.req.Actual == nil {
			continue
		}
		if s.cfg.Detect != nil {
			s.scoreAnomaly(it.req, preds[i], it.resp)
		}
		if s.monitor != nil {
			// Ground truth arrived inline: feed the monitor now, no pending
			// entry to keep.
			v := s.monitor.Observe(envOf(it.req), it.req.RequestID, preds[i], *it.req.Actual, fwdEnd.Unix())
			it.resp.Quality = &v
		}
	}
	s.record(w, valid, start, fwdEnd)
	for _, it := range valid {
		it.code = http.StatusOK
		it.answered = true
		it.wg.Done()
	}
}

// record is a served pass's account of itself, taken once: counters, the
// stage histograms with their exemplars, the tail-sampling decision for
// each request — made on its id, outcome and duration before anything is
// rendered, so a dropped trace costs nothing, and a kept one is its stage
// record rendered straight into stored form — and the pass's unobserved
// predictions under one lock.
func (s *Server) record(w *scratch, valid []*item, start, fwdEnd time.Time) {
	s.served.Add(uint64(len(valid)))
	fwdMS := obs.MS(fwdEnd.Sub(start))
	now := time.Now()
	for _, it := range valid {
		id := it.req.RequestID
		s.stageQueue.ObserveExemplar(obs.MS(start.Sub(it.enq)), id)
		s.stageFwd.ObserveExemplar(fwdMS, id)
		s.latency.ObserveExemplar(obs.MS(now.Sub(it.enq)), id)
		t := obs.TraceSummary{TraceID: id, Outcome: obs.OutcomeServed, DurationMS: obs.MS(fwdEnd.Sub(it.enq))}
		if s.traces.Sample(&t) {
			t.Root, t.StartUnixUS, t.Spans = "serve.request", it.enq.UnixMicro(), recordSpans
			w.spans = it.resp.Record.AppendSpanSection(obs.AppendSpanGroup(w.spans[:0], id), it.req.TraceParent)
			s.traces.Store(t, w.spans)
			it.resp.Record.Kept = true
		}
	}
	if s.pending == nil {
		return
	}
	// What the map keeps outlives the request too. It copies the ids; the
	// environment is cloned here, once per change rather than per window.
	s.pending.PutAll(len(valid), func(i int) (string, pendingPrediction, bool) {
		req := valid[i].req
		if req.Actual != nil {
			return "", pendingPrediction{}, false
		}
		if env := envOf(req); env != w.env {
			w.env = envmeta.Environment{
				Testbed: strings.Clone(env.Testbed), SUT: strings.Clone(env.SUT),
				Testcase: strings.Clone(env.Testcase), Build: strings.Clone(env.Build),
			}
		}
		return req.RequestID, pendingPrediction{env: w.env, pred: valid[i].resp.Prediction}, true
	})
}

// fail answers a request a worker could not serve.
func (s *Server) fail(it *item, code int, err error) {
	it.code, it.err = code, err
	s.failed.Inc()
	s.log.Warn("request failed", "request_id", it.req.RequestID, "code", code, "err", err)
	s.traceFailure(it)
	it.answered = true
	it.wg.Done()
}

// traceFailure leaves the root-only trace of a request that was shed or
// failed — the tail the trace store always keeps.
func (s *Server) traceFailure(it *item) {
	if it.req.RequestID == "" {
		return // refused before it had an id to be found under
	}
	outcome := obs.OutcomeFailed
	if it.code == http.StatusTooManyRequests {
		outcome = obs.OutcomeShed
	}
	t := obs.TraceSummary{TraceID: it.req.RequestID, Outcome: outcome, DurationMS: obs.MS(time.Since(it.enq))}
	if !s.traces.Sample(&t) {
		return
	}
	_, parent, _ := obs.ParseTraceParent(it.req.TraceParent)
	root := obs.Span{
		TraceID: it.req.RequestID, SpanID: obs.NewSpanID(), ParentID: parent, Name: "serve.request",
		StartUnixUS: it.enq.UnixMicro(), DurationMS: t.DurationMS,
		Attrs: map[string]string{"outcome": outcome, "error": it.err.Error()},
	}
	s.storeTrace(outcome, []obs.Span{root})
}

// storeTrace retains a span tree the sampler chose to keep, under its root's
// trace id; the store keeps a copy of it encoded.
func (s *Server) storeTrace(outcome string, spans []obs.Span) {
	root := &spans[0]
	buf := traceBufs.Get().(*[]byte)
	*buf = obs.AppendSpans((*buf)[:0], spans)
	s.traces.Store(obs.TraceSummary{
		TraceID: root.TraceID, Root: root.Name, Outcome: outcome,
		StartUnixUS: root.StartUnixUS, DurationMS: root.DurationMS, Spans: len(spans),
	}, *buf)
	traceBufs.Put(buf)
}

// traceBufs holds the buffers storeTrace renders into before the store
// copies them.
var traceBufs = sync.Pool{New: func() any { return new([]byte) }}

// scoreAnomaly thresholds the prediction error against the chain's online
// error model. Flagged errors are NOT folded back into the calibration, so
// a sustained problem cannot drag the baseline toward itself.
func (s *Server) scoreAnomaly(req *Request, pred float64, resp *Response) {
	// The chain's key is rendered on the stack: only a new chain's is kept.
	var buf [128]byte
	key := append(buf[:0], req.ChainID...)
	if req.ChainID == "" {
		key = envOf(req).Append(buf[:0])
	}
	e := pred - *req.Actual
	s.calMu.Lock()
	defer s.calMu.Unlock()
	c := s.cal[string(key)]
	if c == nil {
		c = &calibration{}
		s.cal[string(key)] = c
	}
	if c.n < s.cfg.MinCalibration {
		c.add(e) // still calibrating; no verdict yet
		return
	}
	flagged := s.cfg.Detect.Exceeds(e, stats.Gaussian{Mu: c.mean, Sigma: c.sigma()})
	dev := math.Abs(e)
	resp.Anomalous = &flagged
	resp.Deviation = &dev
	if !flagged {
		c.add(e)
	}
}

// ── HTTP surface ────────────────────────────────────────────────────────

// DefaultMaxBodyBytes is the request-body cap applied when
// Config.MaxBodyBytes is not positive: large enough for any real predict or
// observe payload, small enough that a hostile client cannot make the
// handler buffer gigabytes.
const DefaultMaxBodyBytes int64 = 4 << 20

// ServeHTTP implements http.Handler over the routes New mounts: POST
// /predict and /observe, GET /quality, /traces, /healthz, /readyz, /statz
// and /metrics.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// limitBody wraps the request body with http.MaxBytesReader so a hostile
// or buggy client gets 413 instead of OOMing the daemon.
func (s *Server) limitBody(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
}

// decodeStrict decodes exactly one JSON value from body: unknown fields
// and trailing garbage are errors, so a protocol typo ("windows" for
// "window") fails loudly instead of silently zero-filling the request.
func decodeStrict(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		if err == nil {
			err = errors.New("trailing data after JSON value")
		}
		return err
	}
	return nil
}

// isBodyTooLarge reports whether a decode error came from MaxBytesReader.
func isBodyTooLarge(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}

// predictScratch is what one JSON predict borrows for its duration: the
// request it decodes into, whose CF and Window keep their capacity from one
// request to the next, and the buffer its reply is rendered into.
type predictScratch struct {
	req   Request
	reply []byte
}

var predictScratches = sync.Pool{New: func() any { return new(predictScratch) }}

// maxPooledFloats bounds the CF and Window capacity a predictScratch may
// take back to the pool, so one outsized request does not stay resident.
const maxPooledFloats = 1 << 12

// jsonContentType is the Content-Type of every JSON reply, shared: a header
// value slice is replaced on a Set, never written through.
var jsonContentType = []string{"application/json"}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	s.limitBody(w, r)
	sc := predictScratches.Get().(*predictScratch)
	defer func() {
		if cap(sc.req.CF)+cap(sc.req.Window) <= maxPooledFloats && cap(sc.reply) <= 1<<16 {
			predictScratches.Put(sc)
		}
	}()
	// Zeroed whole, so nothing of the last request survives in this one — an
	// Actual least of all: a pointer the decoder found set, it would fill.
	req := &sc.req
	*req = Request{CF: req.CF[:0], Window: req.Window[:0]}
	if err := decodeStrict(r.Body, req); err != nil {
		if isBodyTooLarge(err) {
			http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "invalid request: "+err.Error(), http.StatusBadRequest)
		return
	}
	// An inbound X-Request-Id wins over any id in the body; absent both, Do
	// generates one. Either way the id the request was served under is
	// echoed back in the response header and the trace block.
	if id := r.Header.Get(obs.RequestIDHeader); id != "" {
		req.RequestID = id
	}
	req.TraceParent = r.Header.Get(obs.TraceParentHeader)
	resp, code, err := s.Do(req)
	if req.RequestID != "" {
		w.Header()[obs.RequestIDHeader] = []string{req.RequestID}
	}
	if err != nil {
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		http.Error(w, err.Error(), code)
		return
	}
	// The encode stage is the rendering of the answer itself. The trace block
	// reports that stage, so it is rendered from the record afterwards, as
	// the reply's last member.
	encStart := time.Now()
	reply, rerr := appendResponse(sc.reply[:0], resp)
	encEnd := time.Now()
	s.stageEncode.Observe(obs.MS(encEnd.Sub(encStart)))
	if rerr != nil {
		http.Error(w, rerr.Error(), http.StatusInternalServerError)
		return
	}
	reply = appendTraceBlock(reply, &resp.Record, req.RequestID, req.TraceParent, encStart, encEnd)
	sc.reply = append(reply, "}\n"...)
	if resp.Record.Kept {
		// The worker stored the tree as it stood when the pass ended; the
		// same spans plus this stage replace it.
		s.storeServed(req, &resp.Record, encStart, encEnd)
	}
	w.Header()["Content-Type"] = jsonContentType
	_, _ = w.Write(sc.reply)
}

// storeServed stores a kept JSON request's trace: its record's spans and
// the encode stage, the root extended over it.
func (s *Server) storeServed(req *Request, rec *StageRecord, encStart, encEnd time.Time) {
	buf := traceBufs.Get().(*[]byte)
	*buf = rec.appendSection(obs.AppendSpanGroup((*buf)[:0], req.RequestID), req.TraceParent, encStart, encEnd)
	s.traces.Store(obs.TraceSummary{
		TraceID: req.RequestID, Root: "serve.request", Outcome: obs.OutcomeServed,
		StartUnixUS: rec.Enqueue.UnixMicro(), DurationMS: obs.MS(rec.ForwardEnd.Sub(rec.Enqueue)) + obs.MS(encEnd.Sub(encStart)),
		Spans: recordSpans + 1,
	}, *buf)
	traceBufs.Put(buf)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.bundle.Load() == nil {
		http.Error(w, "no model loaded", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// Ready reports whether the server can usefully take traffic right now: a
// bundle is loaded AND the admission queue is below the shed threshold.
// This is the liveness/readiness split: /healthz answers "is the process
// up with a model", /readyz answers "should a front tier route here" —
// a saturated queue means new requests would be shed with 429, so the
// proxy's failover deserves a truthful 503 instead.
func (s *Server) Ready() error {
	if s.bundle.Load() == nil {
		return ErrNoModel
	}
	if s.queue.len() >= s.cfg.QueueDepth {
		return ErrOverloaded
	}
	return nil
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if err := s.Ready(); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.Stats())
}

// ObserveRequest is the POST /observe payload: ground truth for an earlier
// prediction, keyed by its request id.
type ObserveRequest struct {
	RequestID string  `json:"request_id"`
	Actual    float64 `json:"actual"`
	// At is the observation time in unix seconds (alarm attribution);
	// 0 means now.
	At int64 `json:"at,omitempty"`
}

// ObserveResponse echoes the quality verdict for the closed loop.
type ObserveResponse struct {
	Quality quality.Verdict `json:"quality"`
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		jsonError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	if s.monitor == nil {
		jsonError(w, http.StatusServiceUnavailable, "quality monitor disabled")
		return
	}
	s.limitBody(w, r)
	var req ObserveRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		if isBodyTooLarge(err) {
			jsonError(w, http.StatusRequestEntityTooLarge, "request body too large")
			return
		}
		jsonError(w, http.StatusBadRequest, "invalid request: "+err.Error())
		return
	}
	if req.RequestID == "" {
		jsonError(w, http.StatusBadRequest, "request_id is required")
		return
	}
	p, ok := s.pending.Take(req.RequestID)
	if !ok {
		jsonError(w, http.StatusNotFound, "unknown or expired request id")
		return
	}
	at := req.At
	if at == 0 {
		at = time.Now().Unix()
	}
	v := s.monitor.Observe(p.env, req.RequestID, p.pred, req.Actual, at)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(ObserveResponse{Quality: v})
}

func (s *Server) handleQuality(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		jsonError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	if s.monitor == nil {
		jsonError(w, http.StatusServiceUnavailable, "quality monitor disabled")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.monitor.Snapshot())
}

// jsonError writes an {"error": ...} body, matching the alarm store's error
// shape so clients parse one format everywhere.
func jsonError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
