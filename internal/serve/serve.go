package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
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
	// an async bounded queue (see AlarmAsync). Nil keeps alarms local:
	// counted, reported at /quality, but delivered nowhere.
	AlarmSink quality.Sink
	// AlarmAsync tunes the asynchronous alarm pusher wrapped around
	// AlarmSink: queue depth, retries, backoff.
	AlarmAsync quality.AsyncConfig
	// PendingCap bounds the request-id → prediction map backing POST
	// /observe (default 4096). Oldest entries are evicted first; observing
	// an evicted id returns 404.
	PendingCap int

	// MaxBodyBytes caps how much of a request body the JSON handlers will
	// read (default 4 MiB; negative disables the cap). Oversized bodies
	// are rejected with 413 instead of being buffered to OOM.
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
	// from an inbound X-Request-ID header; when still empty at admission,
	// Do generates one. It is echoed in the response trace block (and the
	// X-Request-ID response header on the HTTP path).
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
	Trace   *Trace           `json:"trace,omitempty"`
}

// Trace is the per-request timing breakdown: where this request's latency
// went, stage by stage. The same durations feed the per-stage histograms,
// so an opaque p99 can be attributed to queue wait vs forward pass in
// aggregate, and to one request here.
type Trace struct {
	RequestID   string  `json:"request_id"`
	BatchID     uint64  `json:"batch_id"`            // forward pass that served this request
	QueueWaitMS float64 `json:"queue_wait_ms"`       // admission → worker pickup
	ForwardMS   float64 `json:"forward_ms"`          // batch assembly + shared forward pass
	EncodeMS    float64 `json:"encode_ms,omitempty"` // response JSON encoding (HTTP path only)
	TotalMS     float64 `json:"total_ms"`            // admission → response ready

	// Spans recasts the stage timings above as a span tree: a serve.request
	// root (parented onto the caller's span when the request carried a
	// traceparent header) with one child per stage. Additive — the flat
	// fields stay wire-compatible for existing clients.
	Spans []obs.Span `json:"spans,omitempty"`
}

// item is one in-flight request inside the batching machinery.
type item struct {
	req  *Request
	id   string    // request id (trace correlation)
	enq  time.Time // admission into the queue
	resp *Response
	code int
	err  error
	done chan struct{}
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
	// /observe needs to close the loop; bounded FIFO eviction at PendingCap.
	pendMu    sync.Mutex
	pending   map[string]pendingPrediction
	pendOrder []string
	pendEnv   envmeta.Environment // the last environment stored, cloned once
	pendIDs   idArena
}

// idArena copies the ids the pending map keeps into chunks of its own, so a
// kept id costs its bytes and no allocation, and never the buffer it came
// from. A chunk is freed once every id in it has been evicted or observed.
type idArena struct{ chunk strings.Builder }

func (a *idArena) clone(id string) string {
	if a.chunk.Cap()-a.chunk.Len() < len(id) {
		a.chunk = strings.Builder{}
		a.chunk.Grow(max(4096, len(id)))
	}
	// The chunk never grows past its capacity, so the strings handed out
	// earlier keep their bytes while later ones are appended behind them.
	n := a.chunk.Len()
	a.chunk.WriteString(id)
	return a.chunk.String()[n:]
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
	if cfg.MaxBodyBytes == 0 {
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
			ac := cfg.AlarmAsync
			if ac.Logger == nil {
				ac.Logger = logger
			}
			s.pusher = quality.NewAsync(cfg.AlarmSink, ac, reg)
		}
		s.monitor = quality.NewMonitor(*cfg.Quality, reg, s.pusher)
		s.pending = make(map[string]pendingPrediction)
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

// Quality returns the model-quality monitor (nil when Config.Quality was
// nil), so the embedding daemon can snapshot it directly.
func (s *Server) Quality() *quality.Monitor { return s.monitor }

// Bundle returns the currently served model bundle (nil before the first
// SetBundle).
func (s *Server) Bundle() *Bundle { return s.bundle.Load() }

// Metrics returns the registry the server instruments itself into, so the
// embedding daemon can add its own metrics to the same /metrics page.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Traces returns the tail-sampled trace store behind GET /traces.
func (s *Server) Traces() *obs.TraceStore { return s.traces }

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
	// ErrNonFinite rejects a NaN or ±Inf input value. JSON cannot carry
	// one, the binary protocol can; it is refused at admission so it never
	// reaches a forward pass shared with other requests.
	ErrNonFinite = errors.New("serve: non-finite input value")
)

// prepare validates one request against the loaded bundle and wraps it
// for the queue; on success the item's done channel closes when a worker
// has served it.
func (s *Server) prepare(req *Request, now time.Time) (*item, int, error) {
	b := s.bundle.Load()
	if b == nil {
		return nil, http.StatusServiceUnavailable, ErrNoModel
	}
	if err := validate(req, b); err != nil {
		return nil, http.StatusBadRequest, err
	}
	if req.RequestID == "" {
		req.RequestID = obs.NewRequestID()
	}
	return &item{req: req, id: req.RequestID, enq: now, done: make(chan struct{})}, 0, nil
}

// refuse maps the reason the queue did not admit an item to its status
// code, counting and logging a shed.
func (s *Server) refuse(it *item, why error) int {
	if errors.Is(why, ErrClosed) {
		return http.StatusServiceUnavailable
	}
	s.rejected.Inc()
	s.log.Debug("request shed: queue full", "request_id", it.id, "queue_capacity", s.cfg.QueueDepth)
	return http.StatusTooManyRequests
}

// Do submits one request and blocks until a worker has served it (or it was
// rejected). It returns the response and an HTTP-shaped status code; this is
// also the non-HTTP entry point the benchmarks drive.
func (s *Server) Do(req *Request) (*Response, int, error) {
	it, code, err := s.prepare(req, time.Now())
	if err != nil {
		return nil, code, err
	}
	if n, why := s.queue.push([]*item{it}); n == 0 {
		return nil, s.refuse(it, why), why
	}
	<-it.done
	return it.resp, it.code, it.err
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
// overflow sheds the tail of the batch, not the whole thing.
func (s *Server) DoBatch(reqs []*Request) []BatchResult {
	results := make([]BatchResult, len(reqs))
	items := make([]*item, len(reqs)) // nil where validation refused the request
	now := time.Now()
	for i, req := range reqs {
		it, code, err := s.prepare(req, now)
		if err != nil {
			results[i] = BatchResult{Code: code, Err: err}
			continue
		}
		items[i] = it
	}
	admitted, why := s.queue.push(items)
	for i, it := range items {
		if it == nil {
			continue
		}
		if admitted == 0 {
			results[i] = BatchResult{Code: s.refuse(it, why), Err: why}
			continue
		}
		admitted--
		<-it.done
		results[i] = BatchResult{Resp: it.resp, Code: it.code, Err: it.err}
	}
	return results
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

// runBatch executes one shared forward pass for the requests a worker just
// pulled. Queue wait ends and the forward span opens here: everything from
// worker pickup through the shared Predict call is attributed to the
// forward stage.
func (s *Server) runBatch(w *scratch, items []*item) {
	start := time.Now()
	finish := func(it *item, resp *Response, code int, err error) {
		it.resp, it.code, it.err = resp, code, err
		if err != nil {
			s.failed.Inc()
			s.log.Warn("request failed", "request_id", it.id, "code", code, "err", err)
		} else {
			s.served.Inc()
			total := time.Since(it.enq)
			s.latency.ObserveExemplar(obs.MS(total), it.id)
			if resp.Trace != nil {
				resp.Trace.TotalMS = obs.MS(total)
			}
		}
		close(it.done)
	}
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("serve: forward pass panicked: %v", r)
			s.log.Error("forward pass panicked", "err", r, "batch_size", len(items))
			for _, it := range items {
				if it.done != nil && !done(it) {
					finish(it, nil, http.StatusInternalServerError, err)
				}
			}
		}
	}()
	if s.cfg.stall != nil {
		<-s.cfg.stall
	}

	b := s.bundle.Load()
	if b == nil {
		for _, it := range items {
			finish(it, nil, http.StatusServiceUnavailable, ErrNoModel)
		}
		return
	}
	// Revalidate against the loaded bundle: a hot reload between admission
	// and execution could (in principle) change the model's shape.
	valid := w.valid[:0]
	for _, it := range items {
		if err := validate(it.req, b); err != nil {
			finish(it, nil, http.StatusBadRequest, err)
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
		ids := b.Schema.Encode(envmeta.Environment{
			Testbed: it.req.Testbed, SUT: it.req.SUT,
			Testcase: it.req.Testcase, Build: it.req.Build,
		})
		for k := range batch.EnvIDs {
			batch.EnvIDs[k][i] = ids[k]
		}
	}
	preds := w.preds[:n]
	b.PredictInto(preds, batch)

	batchID := s.batchSeq.Add(1)
	s.batchSizes.Observe(float64(n))
	fwdEnd := time.Now()
	fwdMS := obs.MS(fwdEnd.Sub(start))
	for i, it := range valid {
		queueMS := obs.MS(start.Sub(it.enq))
		s.stageQueue.ObserveExemplar(queueMS, it.id)
		s.stageFwd.ObserveExemplar(fwdMS, it.id)
		// The same stage timings, recast as a span tree: the root parents
		// onto the caller's span when the request carried a traceparent
		// header, so a front tier can stitch these into its own trace.
		root := obs.NewSpan(it.id, parentSpan(it.req), "serve.request", it.enq, fwdEnd)
		root.SetAttr("outcome", obs.OutcomeServed)
		fwd := obs.NewSpan(it.id, root.SpanID, "serve.forward", start, fwdEnd)
		fwd.SetAttr("batch_id", strconv.FormatUint(batchID, 10))
		fwd.SetAttr("batch_size", strconv.Itoa(n))
		resp := &Response{
			Prediction:   preds[i],
			Model:        b.Name,
			ModelVersion: b.Version,
			BatchSize:    n,
			Trace: &Trace{
				RequestID:   it.id,
				BatchID:     batchID,
				QueueWaitMS: queueMS,
				ForwardMS:   fwdMS,
				Spans: []obs.Span{
					root,
					obs.NewSpan(it.id, root.SpanID, "serve.queue_wait", it.enq, start),
					fwd,
				},
			},
		}
		if s.cfg.Detect != nil && it.req.Actual != nil {
			s.scoreAnomaly(it.req, preds[i], resp)
		}
		if s.monitor != nil {
			env := envmeta.Environment{
				Testbed: it.req.Testbed, SUT: it.req.SUT,
				Testcase: it.req.Testcase, Build: it.req.Build,
			}
			if it.req.Actual != nil {
				// Ground truth arrived inline: feed the monitor now, no
				// pending entry to keep.
				v := s.monitor.Observe(env, it.id, preds[i], *it.req.Actual, time.Now().Unix())
				resp.Quality = &v
			} else {
				s.rememberPending(it.id, env, preds[i])
			}
		}
		finish(it, resp, http.StatusOK, nil)
	}
}

// rememberPending records a served-but-unobserved prediction so a later
// POST /observe can attribute its ground truth; the map is bounded by
// PendingCap with oldest-first eviction. What it keeps outlives the
// request, whose strings may sub-slice a decoded wire frame, so it keeps
// copies: the id's in pendIDs, the environment's cloned once per change,
// not per window (the previous entry's is reused when equal).
func (s *Server) rememberPending(id string, env envmeta.Environment, pred float64) {
	s.pendMu.Lock()
	defer s.pendMu.Unlock()
	id = s.pendIDs.clone(id)
	if env != s.pendEnv {
		s.pendEnv = envmeta.Environment{
			Testbed: strings.Clone(env.Testbed), SUT: strings.Clone(env.SUT),
			Testcase: strings.Clone(env.Testcase), Build: strings.Clone(env.Build),
		}
	}
	env = s.pendEnv
	if _, exists := s.pending[id]; !exists {
		for len(s.pending) >= s.cfg.PendingCap && len(s.pendOrder) > 0 {
			old := s.pendOrder[0]
			s.pendOrder = s.pendOrder[1:]
			delete(s.pending, old) // no-op if already observed
		}
		s.pendOrder = append(s.pendOrder, id)
	}
	s.pending[id] = pendingPrediction{env: env, pred: pred}
}

// takePending removes and returns the pending prediction for a request id.
func (s *Server) takePending(id string) (pendingPrediction, bool) {
	s.pendMu.Lock()
	defer s.pendMu.Unlock()
	p, ok := s.pending[id]
	if ok {
		delete(s.pending, id)
	}
	return p, ok
}

// parentSpan extracts the caller-side parent span id from a request's
// traceparent header, empty when absent or malformed (fresh root).
func parentSpan(req *Request) string {
	if req.TraceParent == "" {
		return ""
	}
	_, spanID, ok := obs.ParseTraceParent(req.TraceParent)
	if !ok {
		return ""
	}
	return spanID
}

// storeTrace offers one completed span tree to the tail-sampled store.
func (s *Server) storeTrace(id, outcome string, spans []obs.Span) {
	if len(spans) == 0 {
		return
	}
	root := spans[0]
	s.traces.Add(obs.Trace{
		TraceID: id, Root: root.Name, Outcome: outcome,
		StartUnixUS: root.StartUnixUS, DurationMS: root.DurationMS,
		Spans: append([]obs.Span(nil), spans...),
	})
}

func done(it *item) bool {
	select {
	case <-it.done:
		return true
	default:
		return false
	}
}

// scoreAnomaly thresholds the prediction error against the chain's online
// error model. Flagged errors are NOT folded back into the calibration, so
// a sustained problem cannot drag the baseline toward itself.
func (s *Server) scoreAnomaly(req *Request, pred float64, resp *Response) {
	key := req.ChainID
	if key == "" {
		key = envmeta.Environment{Testbed: req.Testbed, SUT: req.SUT, Testcase: req.Testcase, Build: req.Build}.String()
	}
	e := pred - *req.Actual
	s.calMu.Lock()
	defer s.calMu.Unlock()
	c := s.cal[key]
	if c == nil {
		c = &calibration{}
		s.cal[strings.Clone(key)] = c // the key may sub-slice a decoded frame
	}
	if c.n < s.cfg.MinCalibration {
		c.add(e) // still calibrating; no verdict yet
		return
	}
	em := anomaly.ErrorModel{Dist: stats.Gaussian{Mu: c.mean, Sigma: c.sigma()}, Samples: c.n}
	flagged := anomaly.Flag([]float64{pred}, []float64{*req.Actual}, em, *s.cfg.Detect)[0]
	dev := math.Abs(e)
	resp.Anomalous = &flagged
	resp.Deviation = &dev
	if !flagged {
		c.add(e)
	}
}

// ── HTTP surface ────────────────────────────────────────────────────────

// DefaultMaxBodyBytes is the request-body cap applied when
// Config.MaxBodyBytes is zero: large enough for any real predict or
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
	if s.cfg.MaxBodyBytes > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	}
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

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	t0 := time.Now()
	s.limitBody(w, r)
	var req Request
	if err := decodeStrict(r.Body, &req); err != nil {
		if isBodyTooLarge(err) {
			http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "invalid request: "+err.Error(), http.StatusBadRequest)
		return
	}
	// An inbound X-Request-ID wins over any id in the body; absent both, Do
	// generates one. Either way the id the request was served under is
	// echoed back in the response header and the trace block.
	if id := r.Header.Get(obs.RequestIDHeader); id != "" {
		req.RequestID = id
	}
	req.TraceParent = r.Header.Get(obs.TraceParentHeader)
	resp, code, err := s.Do(&req)
	if req.RequestID != "" {
		w.Header().Set(obs.RequestIDHeader, req.RequestID)
	}
	if err != nil {
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		// Shed and failed requests are exactly the tail the trace store
		// keeps preferentially; record a root-only trace for them.
		if req.RequestID != "" {
			outcome := obs.OutcomeFailed
			if code == http.StatusTooManyRequests {
				outcome = obs.OutcomeShed
			}
			root := obs.NewSpan(req.RequestID, parentSpan(&req), "serve.request", t0, time.Now())
			root.SetAttr("outcome", outcome)
			root.SetAttr("error", err.Error())
			s.storeTrace(req.RequestID, outcome, []obs.Span{root})
		}
		http.Error(w, err.Error(), code)
		return
	}
	// Encode span: marshal once to measure, fold the measurement into the
	// trace block, marshal again. Responses are small, so the second pass
	// costs little and keeps the reported trace self-consistent.
	encStart := time.Now()
	buf, merr := json.Marshal(resp)
	encEnd := time.Now()
	encMS := obs.MS(encEnd.Sub(encStart))
	s.stageEncode.Observe(encMS)
	if merr != nil {
		http.Error(w, merr.Error(), http.StatusInternalServerError)
		return
	}
	if resp.Trace != nil {
		resp.Trace.EncodeMS = encMS
		if len(resp.Trace.Spans) > 0 {
			root := &resp.Trace.Spans[0]
			root.DurationMS += encMS // the root covers encoding too
			resp.Trace.Spans = append(resp.Trace.Spans,
				obs.NewSpan(req.RequestID, root.SpanID, "serve.encode", encStart, encEnd))
		}
		if buf2, err2 := json.Marshal(resp); err2 == nil {
			buf = buf2
		}
		s.storeTrace(req.RequestID, obs.OutcomeServed, resp.Trace.Spans)
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(buf, '\n'))
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
	p, ok := s.takePending(req.RequestID)
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
