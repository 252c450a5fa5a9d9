package main

// The system under test, assembled in-process from public constructors
// only and configured the way the daemons' flag defaults configure it
// (cmd/e2vserve, cmd/e2vproxy), plus -gamma 2 so inline verdicts run.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"env2vec/internal/anomaly"
	"env2vec/internal/core"
	"env2vec/internal/dataset"
	"env2vec/internal/modelserver"
	"env2vec/internal/nn"
	"env2vec/internal/obs"
	"env2vec/internal/pipeline"
	"env2vec/internal/proxy"
	"env2vec/internal/quality"
	"env2vec/internal/serve"
	"env2vec/internal/telecom"
	"env2vec/internal/wire"
)

const (
	modelName = "env2vec"

	// The corpus and the trained model are the system's data, not the
	// workload's input: they are fixed, so that mae and setup_s compare
	// across seeds. --seed orders the replayed traffic (pool.go).
	corpusSeed = 7
	numChains  = 24
	numBuilds  = 3
	// 84 steps with a 20-step history make 64 windows per execution: two
	// full forward batches of 32, eight stream bursts of 8.
	stepsPerBuild = 84
	windowLen     = 20
	windowsPerExe = stepsPerBuild - windowLen
	// Three epochs make a set-up of 1.6 s, long enough that the ±30 ms a
	// process start varies by are under 2 % of it.
	trainEpochs = 3

	numBackends = 2
)

// detectConfig is e2vserve's -gamma 2 with the default -abs-filter 5.
var detectConfig = anomaly.Config{Gamma: 2, AbsFilter: 5}

func corpusConfig() telecom.Config {
	return telecom.Config{
		Seed: corpusSeed, Testbeds: 8, SUTs: 4, Testcases: 6,
		Chains: numChains, BuildsPerChain: numBuilds, StepsPerBuild: stepsPerBuild,
		FaultExecutions: 6, StepSeconds: 15 * 60,
	}
}

// trainerConfig is the paper-sized net of BENCH_infer, fitted for a fixed
// number of epochs so that set-up does the same work on every run.
func trainerConfig() pipeline.TrainerConfig {
	cfg := pipeline.DefaultTrainerConfig(telecom.NumFeatures)
	cfg.Model = core.Config{
		In: telecom.NumFeatures, Hidden: 64, GRUHidden: 32, EmbedDim: 10,
		Window: windowLen, Dropout: 0.1, UnkProb: 0.02, Seed: 1,
	}
	cfg.Train.Epochs = trainEpochs
	cfg.Train.Patience = 0
	return cfg
}

// setupParts are the phases of setup_s, in order; they sum to it.
type setupParts struct {
	Corpus, Train, PublishLoad, Ready time.Duration
}

func (p setupParts) total() time.Duration { return p.Corpus + p.Train + p.PublishLoad + p.Ready }

// backend is one e2vserve: the batching server, its two listeners and the
// registry watcher that feeds it.
type backend struct {
	srv      *serve.Server
	httpSrv  *http.Server
	wireSrv  *wire.Server
	httpAddr string
	wireAddr string
	// loaded receives every model version the watcher has swapped in.
	loaded chan int
}

// model is the corpus and what was trained from it.
type model struct {
	corpus *telecom.Corpus
	tr     *pipeline.TrainResult
	// replay is the newest build of every chain, in chain order: the
	// traffic. The two older builds trained the model.
	replay []*dataset.Series
}

// cloneResult copies a training result's model, so that whoever trains on
// does not touch the one the oracle's references came from.
func cloneResult(tr *pipeline.TrainResult) (*pipeline.TrainResult, error) {
	cp := *tr
	cp.Model = core.New(tr.Model.Config(), tr.Schema)
	if err := cp.Model.Restore(tr.Model.Snapshot()); err != nil {
		return nil, err
	}
	return &cp, nil
}

// fleet is the running system: disk-backed registry, two serve backends
// fed by long-polling watchers, and the proxy in front, on loopback.
type fleet struct {
	dir       string
	registry  *modelserver.Registry
	regSrv    *http.Server
	regClient *modelserver.Client
	backends  []*backend
	proxy     *proxy.Proxy
	proxySrv  *http.Server
	proxyURL  string
	proxyWire string
	stopWatch context.CancelFunc
	watchDone chan struct{}
}

// handlerWrap lets a traced run put a span recorder around an HTTP layer.
type handlerWrap func(layer string, h http.Handler) http.Handler

// listen opens a loopback listener on an ephemeral port.
func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// serveHTTP starts h on a fresh loopback listener.
func serveHTTP(h http.Handler) (*http.Server, string, error) {
	ln, err := listen()
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed at teardown
	return srv, ln.Addr().String(), nil
}

// stopwatch splits one set-up into its phases.
type stopwatch struct{ mark time.Time }

func (sw *stopwatch) lap() time.Duration {
	now := time.Now()
	d := now.Sub(sw.mark)
	sw.mark = now
	return d
}

// setUp builds the corpus, trains and publishes the model, and starts the
// fleet, timing itself from its first line. The Go runtime's start and the
// packages' initialisation before main, about a millisecond, are in no
// set-up: they happen once, and setup_s is a median of several.
func setUp(scratch string, precision serve.Precision, wrap handlerWrap) (*model, *fleet, setupParts, error) {
	var parts setupParts
	sw := &stopwatch{mark: time.Now()}
	m, err := buildModel(sw, &parts)
	if err != nil {
		return nil, nil, parts, err
	}
	f, err := startFleet(m.tr, scratch, precision, wrap, sw, &parts)
	return m, f, parts, err
}

func buildModel(sw *stopwatch, parts *setupParts) (*model, error) {
	m := &model{corpus: telecom.Generate(corpusConfig())}
	exclude := make(map[*dataset.Series]bool)
	for _, chain := range m.corpus.ChainOrder {
		s := m.corpus.Current[chain]
		exclude[s] = true
		m.replay = append(m.replay, s)
	}
	parts.Corpus = sw.lap()

	tr, err := pipeline.Train(m.corpus.Dataset, exclude, trainerConfig())
	if err != nil {
		return nil, err
	}
	m.tr = tr
	parts.Train = sw.lap()
	return m, nil
}

// startFleet publishes tr to a fresh disk-backed registry under dir and
// starts the backends and the proxy, returning once all answer /readyz.
func startFleet(tr *pipeline.TrainResult, dir string, precision serve.Precision, wrap handlerWrap, sw *stopwatch, parts *setupParts) (*fleet, error) {
	f := &fleet{dir: dir}
	err := f.startRegistry()
	if err == nil {
		_, err = pipeline.PublishForServing(f.regClient, modelName, tr)
	}
	if err == nil {
		err = f.startBackends(precision, wrap)
	}
	parts.PublishLoad = sw.lap()
	if err == nil {
		err = f.startProxy(wrap)
	}
	parts.Ready = sw.lap()
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// startRegistry opens the disk-backed registry and serves it over HTTP.
func (f *fleet) startRegistry() error {
	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return err
	}
	reg, err := modelserver.OpenRegistry(modelserver.WithDir(filepath.Join(f.dir, "registry")))
	if err != nil {
		return err
	}
	f.registry = reg
	srv, addr, err := serveHTTP(&modelserver.Handler{Registry: reg})
	if err != nil {
		return err
	}
	f.regSrv = srv
	f.regClient = &modelserver.Client{BaseURL: "http://" + addr}
	return nil
}

// startBackends starts the serve instances and blocks until each has
// loaded the published model through its registry watcher.
func (f *fleet) startBackends(precision serve.Precision, wrap handlerWrap) error {
	const longPoll = 30 * time.Second // e2vserve -long-poll
	ctx, cancel := context.WithCancel(context.Background())
	f.stopWatch = cancel
	f.watchDone = make(chan struct{}, numBackends)
	for i := 0; i < numBackends; i++ {
		srv := serve.New(serve.Config{
			MaxBatch:       32,
			MaxLinger:      2 * time.Millisecond,
			QueueDepth:     256,
			MinCalibration: 8,
			Detect:         &anomaly.Config{Gamma: detectConfig.Gamma, AbsFilter: detectConfig.AbsFilter},
			Quality:        &quality.Config{Gamma: 3, Window: 64, MinSamples: 16, ExceedRate: 0.5},
			Trace:          obs.TraceStoreConfig{Capacity: 1024, SampleRate: 0.1, SlowMS: 250},
		})
		b := &backend{srv: srv, loaded: make(chan int, 64)} // buffer: one slot per publish of the longest run
		f.backends = append(f.backends, b)

		var handler http.Handler = srv
		if wrap != nil {
			handler = wrap("serve", srv)
		}
		httpSrv, addr, err := serveHTTP(handler)
		if err != nil {
			return err
		}
		b.httpSrv, b.httpAddr = httpSrv, addr

		wln, err := listen()
		if err != nil {
			return err
		}
		b.wireAddr = wln.Addr().String()
		b.wireSrv = wire.NewServer(srv, wire.ServerConfig{})
		go b.wireSrv.Serve(wln) //nolint:errcheck // returns when the server closes

		watchErr := make(chan error, 1)
		watcher := &modelserver.Watcher{
			Client: &modelserver.Client{
				BaseURL: f.regClient.BaseURL,
				HTTP:    &http.Client{Timeout: longPoll + 30*time.Second},
			},
			Name:     modelName,
			Interval: 10 * time.Second,
			LongPoll: longPoll,
			OnUpdate: func(snap *nn.Snapshot, ver int) {
				bundle, err := serve.BundleFromSnapshot(modelName, ver, snap)
				if err == nil {
					err = bundle.SetPrecision(precision)
				}
				if err != nil {
					select {
					case watchErr <- err:
					default:
					}
					return
				}
				srv.SetBundle(bundle)
				b.loaded <- ver
			},
		}
		go func() {
			watcher.Run(ctx)
			f.watchDone <- struct{}{}
		}()
		select {
		case <-b.loaded:
		case err := <-watchErr:
			return fmt.Errorf("backend %d: load published model: %w", i, err)
		case <-time.After(10 * time.Second):
			return fmt.Errorf("backend %d: published model not loaded within 10s", i)
		}
	}
	return nil
}

// backendName is the URL the proxy knows backend i by. The ring hashes
// these names, so they must not carry the ephemeral port: the same names
// give the same environment→backend split on every run.
func backendName(i int) string { return fmt.Sprintf("serve-%d.bench", i) }

// startProxy starts the front tier on both protocols and waits until the
// proxy and every backend answer /readyz.
func (f *fleet) startProxy(wrap handlerWrap) error {
	addrOf := make(map[string]string)
	var urls, wires []string
	for i, b := range f.backends {
		addrOf[backendName(i)+":80"] = b.httpAddr
		urls = append(urls, "http://"+backendName(i))
		wires = append(wires, b.wireAddr)
	}
	// The default forwarding client of proxy.New, with the backend names
	// resolved to this run's listeners.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	dialer := &net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}
	transport.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if real, ok := addrOf[addr]; ok {
			addr = real
		}
		return dialer.DialContext(ctx, network, addr)
	}
	const timeout = 10 * time.Second // e2vproxy -timeout
	f.proxy = proxy.New(proxy.Config{
		Backends:      urls,
		WireBackends:  wires,
		MaxBodyBytes:  4 << 20,
		VNodes:        64,
		LoadFactor:    1.25,
		RetryBackoff:  5 * time.Millisecond,
		CheckInterval: 2 * time.Second,
		FailAfter:     2,
		RiseAfter:     2,
		Timeout:       timeout,
		Trace:         obs.TraceStoreConfig{Capacity: 1024, SampleRate: 0.1, SlowMS: 250},
		HTTP:          &http.Client{Timeout: timeout, Transport: transport},
	})
	f.proxy.Start()

	var handler http.Handler = f.proxy
	if wrap != nil {
		handler = wrap("proxy", f.proxy)
	}
	srv, addr, err := serveHTTP(handler)
	if err != nil {
		return err
	}
	f.proxySrv, f.proxyURL = srv, "http://"+addr
	wln, err := listen()
	if err != nil {
		return err
	}
	f.proxyWire = wln.Addr().String()
	go f.proxy.ServeWire(wln) //nolint:errcheck // returns when the proxy closes

	ready := []string{f.proxyURL + "/readyz"}
	for _, b := range f.backends {
		ready = append(ready, "http://"+b.httpAddr+"/readyz")
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, url := range ready {
		for {
			resp, err := http.Get(url)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not ready within 10s", url)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// forwardPasses sums the backends' served-request and forward-pass counts.
func (f *fleet) forwardPasses() (served, batches uint64) {
	for _, b := range f.backends {
		st := b.srv.Stats()
		served += st.Served
		batches += st.Batches
	}
	return served, batches
}

// awaitVersion blocks until every backend's watcher has swapped in ver.
func (f *fleet) awaitVersion(ver int, timeout time.Duration) error {
	deadline := time.After(timeout)
	for i, b := range f.backends {
		for got := 0; got < ver; {
			select {
			case got = <-b.loaded:
			case <-deadline:
				return fmt.Errorf("backend %d did not serve v%d within %v", i, ver, timeout)
			}
		}
	}
	return nil
}

// close stops every goroutine and listener the stack started and removes
// its scratch directory. It is safe on a partly built stack.
func (f *fleet) close() {
	if f.proxySrv != nil {
		f.proxySrv.Close()
	}
	if f.proxy != nil {
		f.proxy.Close()
	}
	if f.stopWatch != nil {
		f.stopWatch()
	}
	for _, b := range f.backends {
		if b.wireSrv != nil {
			b.wireSrv.Close()
		}
		if b.httpSrv != nil {
			b.httpSrv.Close()
		}
		b.srv.Close()
	}
	if f.regSrv != nil {
		// Closing the registry's connections ends the parked long-polls, so
		// the watchers return.
		f.regSrv.Close()
		for range f.backends {
			select {
			case <-f.watchDone:
			case <-time.After(5 * time.Second):
			}
		}
	}
	if f.registry != nil {
		f.registry.Close()
	}
	http.DefaultClient.CloseIdleConnections()
	os.RemoveAll(f.dir)
}

// box describes the machine and runtime a result was measured on.
type box struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOGC       string `json:"gogc"`
}

func stampBox() box {
	b := box{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOGC: os.Getenv("GOGC"),
	}
	if b.GOGC == "" {
		b.GOGC = "100"
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		if name := cpuModel(string(data)); name != "" {
			b.CPU = name
		}
	}
	return b
}
