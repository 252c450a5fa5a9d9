// Command e2vserve is the online prediction daemon: it loads an Env2Vec
// snapshot (from a local file or by polling a model-registry endpoint),
// serves per-timestep CPU predictions over HTTP with micro-batching and
// backpressure, and hot-swaps the model when the registry publishes a new
// version.
//
//	e2vserve -model FILE [-addr :9090]
//	    Serve a local snapshot that carries serving artifacts
//	    (written by `env2vec train`).
//
//	e2vserve -registry http://HOST:8080 [-name env2vec] [-poll 10s]
//	    Pull the latest published version and keep polling for updates.
//
//	e2vserve -registry http://HOST:8080 -registry-dir DIR
//	    Same, but mirror the registry into a durable local store: the
//	    daemon warm-starts from DIR after a restart (even with the
//	    primary down) and keeps DIR converged as a replica.
//
// With -wire-addr the daemon additionally serves the length-prefixed
// binary wire protocol (batched predicts and subscribe-mode streaming, see
// docs/serving.md) on a second listener, dispatching into the same
// micro-batcher as the JSON path.
//
// Endpoints: POST /predict, POST /observe (deferred ground truth), GET
// /quality (model-quality report), GET /traces and GET /traces/{id}
// (tail-sampled stage-span traces), GET /healthz, GET /statz, GET
// /metrics (Prometheus text format), and — with -pprof — GET
// /debug/pprof/.
// The model-quality monitor is always on; point -alarmstore at an alarm
// store to have drift alarms delivered there. Diagnostics go to stderr as
// structured (slog) records; see docs/observability.md for metric names,
// trace fields, and the quality/alarm pipeline.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"env2vec/internal/anomaly"
	"env2vec/internal/modelserver"
	"env2vec/internal/nn"
	"env2vec/internal/obs"
	"env2vec/internal/quality"
	"env2vec/internal/serve"
	"env2vec/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "e2vserve:", err)
		os.Exit(1)
	}
}

// registryClient builds the registry client for a poll loop: with
// long-polling on, the HTTP timeout must outlast the server-side park.
func registryClient(baseURL string, longPoll time.Duration) *modelserver.Client {
	c := &modelserver.Client{BaseURL: baseURL}
	if longPoll > 0 {
		c.HTTP = &http.Client{Timeout: longPoll + 30*time.Second}
	}
	return c
}

func run(args []string) error {
	fs := flag.NewFlagSet("e2vserve", flag.ExitOnError)
	addr := fs.String("addr", ":9090", "listen address")
	wireAddr := fs.String("wire-addr", "", "binary wire-protocol listen address (e.g. :9091); empty disables")
	maxBody := fs.Int64("max-body", serve.DefaultMaxBodyBytes, "max accepted HTTP request-body bytes (oversize answers 413)")
	registry := fs.String("registry", "", "model-registry base URL to poll (e.g. http://localhost:8080)")
	registryDir := fs.String("registry-dir", "", "local durable registry mirror: replayed for a warm start, then kept converged with -registry")
	name := fs.String("name", "env2vec", "model name in the registry")
	model := fs.String("model", "", "local snapshot file (alternative to -registry)")
	precisionFlag := fs.String("precision", "float64", "serving forward-pass precision: float64 (tape-exact) or float32 (~2x faster, 1e-4 relative; see docs/performance.md)")
	poll := fs.Duration("poll", 10*time.Second, "registry poll interval (long-poll fallback pacing)")
	longPoll := fs.Duration("long-poll", 30*time.Second, "park registry polls server-side this long (?wait=), so new versions land in O(RTT); 0 = plain polling")
	maxBatch := fs.Int("max-batch", 32, "max requests per forward pass (a free worker takes what is queued, up to this many)")
	queue := fs.Int("queue", 256, "admission queue bound (overflow returns 429)")
	workers := fs.Int("workers", 0, "forward-pass workers (0 = GOMAXPROCS)")
	gamma := fs.Float64("gamma", 0, "enable inline anomaly verdicts with this γ threshold (0 disables)")
	absFilter := fs.Float64("abs-filter", 5, "absolute deviation filter for verdicts (0 disables)")
	minCal := fs.Int("min-cal", 8, "observations per chain before verdicts are emitted")
	qGamma := fs.Float64("quality-gamma", 3, "quality monitor γ: errors beyond γ·σ of the baseline count as exceedances")
	qWindow := fs.Int("quality-window", 64, "quality monitor window of recent errors per environment")
	qMin := fs.Int("quality-min", 16, "observations per environment before drift verdicts fire")
	qExceed := fs.Float64("quality-exceed-rate", 0.5, "fraction of the window beyond γ·σ that raises a drift alarm")
	alarmURL := fs.String("alarmstore", "", "alarm-store base URL drift alarms are pushed to (empty = local only)")
	traceCap := fs.Int("trace-capacity", 1024, "traces retained in the tail-sampled store behind GET /traces")
	traceSample := fs.Float64("trace-sample", 0.1, "head-sampling rate for unremarkable traces (1 keeps all, <0 keeps none)")
	traceSlowMS := fs.Float64("trace-slow-ms", 250, "latency above which a trace is always retained (<0 disables)")
	logLevel := fs.String("log-level", "info", "log level: debug|info|warn|error")
	pprofOn := fs.Bool("pprof", false, "mount /debug/pprof/ handlers")
	_ = fs.Parse(args)
	if *model != "" && (*registry != "" || *registryDir != "") {
		return errors.New("-model is exclusive with -registry/-registry-dir")
	}
	if *model == "" && *registry == "" && *registryDir == "" {
		return errors.New("one of -model, -registry, or -registry-dir is required")
	}
	precision, err := serve.ParsePrecision(*precisionFlag)
	if err != nil {
		return err
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	logger := obs.NewLogger(os.Stderr, level, "e2vserve")

	// Every bundle — initial load, mirror replay, watcher update — gets the
	// chosen precision applied before it is swapped into the server.
	newBundle := func(ver int, snap *nn.Snapshot) (*serve.Bundle, error) {
		b, err := serve.BundleFromSnapshot(*name, ver, snap)
		if err != nil {
			return nil, err
		}
		if err := b.SetPrecision(precision); err != nil {
			return nil, err
		}
		return b, nil
	}

	reg := obs.NewRegistry()
	cfg := serve.Config{
		MaxBatch:       *maxBatch,
		QueueDepth:     *queue,
		Workers:        *workers,
		MinCalibration: *minCal,
		MaxBodyBytes:   *maxBody,
		Trace:          obs.TraceStoreConfig{Capacity: *traceCap, SampleRate: *traceSample, SlowMS: *traceSlowMS},
		Obs:            reg,
		Logger:         obs.NewLogger(os.Stderr, level, "serve"),
		EnablePprof:    *pprofOn,
	}
	if *gamma > 0 {
		cfg.Detect = &anomaly.Config{Gamma: *gamma, AbsFilter: *absFilter}
	}
	// The quality monitor is always on: it only needs ground truth (inline
	// actuals or POST /observe) to produce anything. Alarms leave the
	// process only when -alarmstore names a store.
	cfg.Quality = &quality.Config{
		Gamma: *qGamma, Window: *qWindow, MinSamples: *qMin, ExceedRate: *qExceed,
	}
	if *alarmURL != "" {
		cfg.AlarmSink = quality.HTTPSink{URL: *alarmURL}
	}
	srv := serve.New(cfg)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *model != "" {
		snap, err := nn.LoadSnapshotFile(*model)
		if err != nil {
			return err
		}
		b, err := newBundle(0, snap)
		if err != nil {
			return fmt.Errorf("%s: %w (was it written by `env2vec train`?)", *model, err)
		}
		srv.SetBundle(b)
		logger.Info("serving local snapshot", "model", *name, "file", *model, "precision", string(precision))
	} else if *registryDir != "" {
		// Durable mirror mode: replay the local registry for a warm start
		// (serving resumes even if the primary is down), then follow the
		// primary as a replica and hot-reload as versions land.
		local, err := modelserver.OpenRegistry(modelserver.WithDir(*registryDir))
		if err != nil {
			return err
		}
		defer local.Close()
		local.Instrument(reg)
		replicaLog := obs.NewLogger(os.Stderr, level, "replica")
		loadLocal := func() {
			v, err := local.Latest(*name)
			if err != nil {
				return // nothing mirrored yet
			}
			if cur := srv.Bundle(); cur != nil && cur.Version >= v.Number {
				return
			}
			snap, err := nn.DecodeSnapshot(bytes.NewReader(v.Data))
			if err != nil {
				replicaLog.Error("mirrored version undecodable", "model", *name, "version", v.Number, "err", err)
				return
			}
			b, err := newBundle(v.Number, snap)
			if err != nil {
				replicaLog.Error("rejecting mirrored version", "model", *name, "version", v.Number, "err", err)
				return
			}
			srv.SetBundle(b)
		}
		loadLocal()
		if rec := local.RecoveredRecords(); rec > 0 {
			logger.Warn("registry mirror quarantined torn records on replay", "dir", *registryDir, "records", rec)
		}
		if *registry != "" {
			replica := (&modelserver.Replica{
				Client:   registryClient(*registry, *longPoll),
				Registry: local,
				Interval: *poll,
				LongPoll: *longPoll,
				OnSync: func(pulled int) {
					if pulled > 0 {
						loadLocal()
					}
				},
				OnError: func(err error) {
					replicaLog.Warn("replica sync failed", "registry", *registry, "err", err)
				},
			}).Instrument(reg)
			go replica.Run(ctx)
			logger.Info("mirroring registry", "registry", *registry, "dir", *registryDir, "interval", *poll)
		} else {
			logger.Info("serving from local registry mirror", "dir", *registryDir)
		}
	} else {
		watcherLog := obs.NewLogger(os.Stderr, level, "watcher")
		watcher := (&modelserver.Watcher{
			Client:   registryClient(*registry, *longPoll),
			Name:     *name,
			Interval: *poll,
			LongPoll: *longPoll,
			OnUpdate: func(snap *nn.Snapshot, ver int) {
				b, err := newBundle(ver, snap)
				if err != nil {
					watcherLog.Error("rejecting published version", "model", *name, "version", ver, "err", err)
					return
				}
				srv.SetBundle(b)
			},
			OnError: func(err error) {
				watcherLog.Warn("registry poll failed", "registry", *registry, "model", *name, "err", err)
			},
		}).Instrument(reg)
		go watcher.Run(ctx)
		logger.Info("polling registry", "registry", *registry, "model", *name, "interval", *poll)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr,
			"endpoints", "POST /predict, POST /observe, GET /quality, GET /healthz, GET /statz, GET /metrics, GET /traces",
			"alarmstore", *alarmURL, "pprof", *pprofOn)
		errc <- httpSrv.ListenAndServe()
	}()

	// The binary protocol listens beside JSON and dispatches into the same
	// micro-batcher; either listener failing takes the daemon down.
	var wireSrv *wire.Server
	if *wireAddr != "" {
		ln, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			srv.Close()
			return fmt.Errorf("wire listener: %w", err)
		}
		wireSrv = wire.NewServer(srv, wire.ServerConfig{Obs: reg})
		go func() {
			logger.Info("wire protocol listening", "addr", *wireAddr, "modes", "batch, subscribe")
			if err := wireSrv.Serve(ln); err != nil {
				errc <- fmt.Errorf("wire listener: %w", err)
			}
		}()
	}
	closeWire := func() {
		if wireSrv != nil {
			wireSrv.Close()
		}
	}

	select {
	case err := <-errc:
		closeWire()
		srv.Close()
		return err
	case <-ctx.Done():
	}
	// Stop accepting connections, then drain in-flight batches.
	closeWire()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return err
	}
	srv.Close()
	logger.Info("drained; bye")
	return nil
}
