// Command e2vproxy is the environment-affinity front tier for a fleet of
// e2vserve instances: it consistent-hashes each request's environment
// tuple <Testbed,SUT,Testcase,Build> onto a backend (bounded-load ring
// with virtual nodes), so every instance sees a stable slice of
// environments and its per-env quality state and micro-batches stay
// coherent. Backends are health-checked off GET /readyz; a dead backend's
// slice re-homes deterministically to the next backend clockwise and
// returns when it rejoins. Requests that hit a
// dead or overloaded backend fail over along the ring within a retry
// budget; a saturated pool sheds with 429.
//
//	e2vproxy -backends http://h1:9090,http://h2:9090 [-addr :9080]
//	e2vproxy -backends ... -wire-addr :9081 -wire-backends h1:9091,h2:9091
//
// With -wire-addr the proxy additionally fronts the binary wire protocol:
// batched predicts are routed per environment group over pooled backend
// connections (same ring, health hysteresis, retry budget, and trace
// stitching as the JSON path), and subscribe-mode streams are spliced raw
// to their environment's home backend.
//
// Endpoints: POST /predict and POST /observe (routed), GET /quality
// (fleet union of per-env drift state), GET /metrics (the proxy's own
// routing metrics plus every live backend's exposition, labelled
// backend="host:port"), GET /statz (forwarded to one live backend, so
// load generators discover the model shape through the proxy), GET /fleet
// (routing state), GET /traces and GET /traces/{id} (tail-sampled
// distributed traces: proxy root + per-attempt spans stitched to the
// backend's stage spans), GET /healthz, GET /readyz.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"env2vec/internal/obs"
	"env2vec/internal/proxy"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "e2vproxy:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("e2vproxy", flag.ExitOnError)
	addr := fs.String("addr", ":9080", "listen address")
	backends := fs.String("backends", "", "comma-separated e2vserve base URLs (required)")
	wireAddr := fs.String("wire-addr", "", "binary wire-protocol listen address (e.g. :9081); empty disables")
	wireBackends := fs.String("wire-backends", "", "comma-separated backend wire addresses (host:port), parallel to -backends; required with -wire-addr")
	maxBody := fs.Int64("max-body", 4<<20, "max accepted HTTP request-body bytes (oversize answers 413)")
	vnodes := fs.Int("vnodes", 64, "virtual nodes per backend on the hash ring")
	loadFactor := fs.Float64("load-factor", 1.25, "bounded-load factor c (≤1 disables the bound)")
	retries := fs.Int("retries", 0, "failover budget per request (0 = try every backend)")
	backoff := fs.Duration("retry-backoff", 5*time.Millisecond, "first retry delay, doubling per attempt")
	maxInflight := fs.Int("max-inflight", 0, "pool-wide in-flight cap before shedding 429s (0 = 256·backends)")
	check := fs.Duration("check", 2*time.Second, "health probe interval")
	failAfter := fs.Int("fail-after", 2, "consecutive probe failures that take a backend out")
	riseAfter := fs.Int("rise-after", 2, "consecutive probe successes that bring it back")
	timeout := fs.Duration("timeout", 10*time.Second, "per-attempt forward timeout")
	traceCap := fs.Int("trace-capacity", 1024, "traces retained in the tail-sampled store behind GET /traces")
	traceSample := fs.Float64("trace-sample", 0.1, "head-sampling rate for unremarkable traces (1 keeps all, <0 keeps none)")
	traceSlowMS := fs.Float64("trace-slow-ms", 250, "latency above which a trace is always retained (<0 disables)")
	logLevel := fs.String("log-level", "info", "log level: debug|info|warn|error")
	pprofOn := fs.Bool("pprof", false, "mount /debug/pprof/ handlers")
	_ = fs.Parse(args)
	if *backends == "" {
		return errors.New("-backends is required (comma-separated e2vserve URLs)")
	}
	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		return errors.New("-backends parsed to an empty list")
	}
	var wireAddrs []string
	if *wireBackends != "" {
		for _, a := range strings.Split(*wireBackends, ",") {
			if a = strings.TrimSpace(a); a != "" {
				wireAddrs = append(wireAddrs, a)
			}
		}
		if len(wireAddrs) != len(urls) {
			return fmt.Errorf("-wire-backends lists %d addresses for %d backends; they must pair one-to-one", len(wireAddrs), len(urls))
		}
	}
	if *wireAddr != "" && len(wireAddrs) == 0 {
		return errors.New("-wire-addr requires -wire-backends")
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	logger := obs.NewLogger(os.Stderr, level, "e2vproxy")

	p := proxy.New(proxy.Config{
		Backends:      urls,
		WireBackends:  wireAddrs,
		MaxBodyBytes:  *maxBody,
		VNodes:        *vnodes,
		LoadFactor:    *loadFactor,
		Retries:       *retries,
		RetryBackoff:  *backoff,
		MaxInflight:   *maxInflight,
		CheckInterval: *check,
		FailAfter:     *failAfter,
		RiseAfter:     *riseAfter,
		Timeout:       *timeout,
		Trace:         obs.TraceStoreConfig{Capacity: *traceCap, SampleRate: *traceSample, SlowMS: *traceSlowMS},
		Obs:           obs.NewRegistry(),
		Logger:        obs.NewLogger(os.Stderr, level, "proxy"),
		EnablePprof:   *pprofOn,
	})
	p.Start()
	defer p.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	httpSrv := &http.Server{Addr: *addr, Handler: p}
	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "backends", len(urls),
			"endpoints", "POST /predict, POST /observe, GET /quality, GET /metrics, GET /statz, GET /fleet, GET /traces, GET /healthz, GET /readyz")
		errc <- httpSrv.ListenAndServe()
	}()
	if *wireAddr != "" {
		ln, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			return fmt.Errorf("wire listener: %w", err)
		}
		go func() {
			logger.Info("wire protocol listening", "addr", *wireAddr, "wire_backends", len(wireAddrs))
			if err := p.ServeWire(ln); err != nil {
				errc <- fmt.Errorf("wire listener: %w", err)
			}
		}()
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return err
	}
	logger.Info("drained; bye")
	return nil
}
