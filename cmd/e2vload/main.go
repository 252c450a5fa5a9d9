// Command e2vload is a closed-loop load generator for e2vserve (or an
// e2vproxy front tier): it discovers the served model's input shape from
// GET /statz, drives POST /predict from concurrent workers (optionally
// rate-limited, optionally carrying synthetic ground truth to exercise
// the quality monitor), and finishes by printing the client-side latency
// picture — per target when several are given — the server's own
// per-stage p99 attribution from /statz, and the slowest retained traces
// from GET /traces as indented span trees (-slow-traces).
//
//	e2vload -addr http://localhost:9090 [-c 4] [-duration 10s] [-rps 0]
//	        [-actuals 0] [-seed 1] [-envs 1]
//	e2vload -targets http://h1:9090,http://h2:9090 ...   # spread workers
//	e2vload -addr http://proxy:9080 -envs 32 ...         # through a proxy
//
// Besides JSON it speaks the binary wire protocol (-proto binary sends
// length-prefixed batch frames of -wire-batch requests; -proto stream
// opens one subscribe-mode connection per worker and drives lock-step
// window→prediction round trips). Both need -wire-targets: the wire
// addresses paired one-to-one with the HTTP targets, which still serve
// shape discovery (/statz) and the post-run attribution.
//
//	e2vload -addr http://h1:9090 -wire-targets h1:9091 -proto binary -wire-batch 8
//	e2vload -addr http://proxy:9080 -wire-targets proxy:9081 -proto stream
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"env2vec/internal/envmeta"
	"env2vec/internal/obs"
	"env2vec/internal/serve"
	"env2vec/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2vload:", err)
		os.Exit(1)
	}
}

// target is one service URL under load, with its own client-side counters
// so a fleet run reports per-backend throughput and tail.
type target struct {
	base             string // HTTP base URL (statz, traces, -proto json)
	wireAddr         string // wire host:port (-proto binary|stream); may be ""
	latency          *obs.Histogram
	ok, shed, failed atomic.Uint64
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("e2vload", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:9090", "base URL of the prediction service")
	targetsFlag := fs.String("targets", "", "comma-separated base URLs (overrides -addr); workers round-robin across them")
	proto := fs.String("proto", "json", "transport: json | binary (wire batch frames) | stream (wire subscribe mode)")
	wireTargets := fs.String("wire-targets", "", "comma-separated wire addresses (host:port), parallel to the HTTP targets; required for -proto binary|stream")
	wireBatch := fs.Int("wire-batch", 1, "requests per batch frame with -proto binary")
	conc := fs.Int("c", 4, "concurrent request workers")
	duration := fs.Duration("duration", 10*time.Second, "how long to generate load")
	rps := fs.Float64("rps", 0, "target aggregate requests/second (0 = unthrottled)")
	actuals := fs.Float64("actuals", 0, "fraction of requests carrying synthetic ground truth (feeds the quality monitor)")
	envs := fs.Int("envs", 1, "distinct environment tuples to spread requests over (build varies)")
	slowTraces := fs.Int("slow-traces", 3, "slowest retained traces to print per target after the run (0 disables)")
	alertsURL := fs.String("alerts", "", "tsdbd base URL; after the run, fetch /alerts and fail if any alert is firing")
	seed := fs.Int64("seed", 1, "random seed for request generation")
	_ = fs.Parse(args)
	if *conc <= 0 {
		return fmt.Errorf("-c must be positive")
	}
	if *envs <= 0 {
		*envs = 1
	}
	var tgts []*target
	reg := obs.NewRegistry()
	raw := *targetsFlag
	if raw == "" {
		raw = *addr
	}
	for _, u := range strings.Split(raw, ",") {
		if u = strings.TrimSpace(u); u != "" {
			base := strings.TrimRight(u, "/")
			tgts = append(tgts, &target{
				base:    base,
				latency: reg.Histogram("client_latency_ms", "", obs.DefLatencyBuckets, obs.Labels{"target": base}),
			})
		}
	}
	if len(tgts) == 0 {
		return fmt.Errorf("no targets given")
	}
	switch *proto {
	case "json":
	case "binary", "stream":
		var addrs []string
		for _, a := range strings.Split(*wireTargets, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) != len(tgts) {
			return fmt.Errorf("-proto %s needs -wire-targets with %d address(es), got %d", *proto, len(tgts), len(addrs))
		}
		for i, t := range tgts {
			t.wireAddr = addrs[i]
		}
		if *wireBatch <= 0 {
			*wireBatch = 1
		}
	default:
		return fmt.Errorf("-proto must be json, binary, or stream (got %q)", *proto)
	}
	client := &http.Client{Timeout: 10 * time.Second}

	// Shape discovery: /statz tells us the model's feature arity and window,
	// so the generator needs no model file of its own. Any target will do —
	// a fleet serves one model; a proxy forwards /statz to a live backend.
	var st serve.Stats
	var err error
	for _, t := range tgts {
		if st, err = fetchStats(client, t.base); err == nil {
			break
		}
	}
	if err != nil {
		return err
	}
	if st.Model == "" || st.ModelIn <= 0 || st.ModelWindow <= 0 {
		return fmt.Errorf("target serves no model yet (statz: model=%q in=%d window=%d)", st.Model, st.ModelIn, st.ModelWindow)
	}
	fmt.Fprintf(w, "targets %d model=%s/v%d in=%d window=%d proto=%s workers=%d duration=%s\n",
		len(tgts), st.Model, st.ModelVersion, st.ModelIn, st.ModelWindow, *proto, *conc, *duration)

	var tick <-chan time.Time
	if *rps > 0 {
		t := time.NewTicker(time.Duration(float64(time.Second) / *rps))
		defer t.Stop()
		tick = t.C
	}
	totalLatency := reg.Histogram("client_latency_all_ms", "", obs.DefLatencyBuckets, nil)
	var lastErr atomic.Value
	deadline := time.Now().Add(*duration)
	begin := time.Now()

	// observe records one latency sample (a request, a batch exchange, or a
	// stream round trip); count classifies one request's outcome.
	observe := func(tgt *target, ms float64) {
		tgt.latency.Observe(ms)
		totalLatency.Observe(ms)
	}
	count := func(tgt *target, code int, err error) {
		switch {
		case err != nil:
			tgt.failed.Add(1)
			lastErr.Store(err)
		case code == http.StatusOK:
			tgt.ok.Add(1)
		case code == http.StatusTooManyRequests:
			tgt.shed.Add(1)
		default:
			tgt.failed.Add(1)
			lastErr.Store(fmt.Errorf("status %d", code))
		}
	}
	// pace blocks for the rate limiter; false means the deadline passed.
	pace := func() bool {
		if tick == nil {
			return true
		}
		select {
		case <-tick:
			return true
		case <-time.After(time.Until(deadline)):
			return false
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < *conc; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tgt := tgts[g%len(tgts)]
			rng := rand.New(rand.NewSource(*seed + int64(g)))
			switch *proto {
			case "binary":
				wireWorker(tgt, rng, st, deadline, pace, observe, count, *wireBatch, *actuals, *envs)
			case "stream":
				streamWorker(tgt, rng, deadline, pace, observe, count, *actuals, *envs, g)
			default:
				for time.Now().Before(deadline) {
					if !pace() {
						return
					}
					req := genRequest(rng, st.ModelIn, st.ModelWindow, *actuals, *envs)
					t0 := time.Now()
					code, err := postPredict(client, tgt.base, req)
					observe(tgt, obs.MS(time.Since(t0)))
					count(tgt, code, err)
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(begin)

	var ok, shed, failed uint64
	for _, t := range tgts {
		ok += t.ok.Load()
		shed += t.shed.Load()
		failed += t.failed.Load()
	}
	total := ok + shed + failed
	if total == 0 {
		return fmt.Errorf("no requests completed")
	}
	qs := totalLatency.Quantiles(0.50, 0.99)
	fmt.Fprintf(w, "sent %d requests in %s (%.1f req/s): %d ok, %d shed (429), %d failed\n",
		total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds(), ok, shed, failed)
	fmt.Fprintf(w, "client latency p50=%.2fms p99=%.2fms\n", qs[0], qs[1])
	if len(tgts) > 1 {
		for _, t := range tgts {
			n := t.ok.Load() + t.shed.Load() + t.failed.Load()
			tq := t.latency.Quantiles(0.50, 0.99)
			fmt.Fprintf(w, "target %s: %d req (%.1f req/s), %d ok, %d shed, %d failed, p50=%.2fms p99=%.2fms\n",
				t.base, n, float64(n)/elapsed.Seconds(), t.ok.Load(), t.shed.Load(), t.failed.Load(), tq[0], tq[1])
		}
	}
	if err, _ := lastErr.Load().(error); err != nil {
		fmt.Fprintf(w, "last failure: %v\n", err)
	}

	// The server's own attribution: where the tail went, stage by stage,
	// per target when several are under load.
	for _, t := range tgts {
		st, err := fetchStats(client, t.base)
		if err != nil {
			fmt.Fprintf(w, "target %s: final statz fetch failed: %v\n", t.base, err)
			continue
		}
		prefix := "server"
		if len(tgts) > 1 {
			prefix = "server " + t.base
		}
		fmt.Fprintf(w, "%s p50=%.2fms p99=%.2fms (queue_wait p99=%.2fms, forward p99=%.2fms)\n",
			prefix, st.P50LatencyMS, st.P99LatencyMS, st.QueueWaitP99MS, st.ForwardP99MS)
		fmt.Fprintf(w, "%s batches=%d max_batch_observed=%d rejected=%d\n",
			prefix, st.Batches, st.MaxBatchObserved, st.Rejected)
		if *slowTraces > 0 {
			printSlowTraces(w, client, t.base, prefix, *slowTraces)
		}
	}
	if *alertsURL != "" {
		return checkAlerts(w, client, *alertsURL)
	}
	return nil
}

// wireWorker drives -proto binary: one wire connection per worker, batch
// frames of wireBatch requests, redialing after transport errors. One
// latency sample covers one batch exchange; outcomes count per request.
func wireWorker(tgt *target, rng *rand.Rand, st serve.Stats, deadline time.Time,
	pace func() bool, observe func(*target, float64), count func(*target, int, error),
	wireBatch int, actuals float64, envs int) {
	var c *wire.Client
	defer func() {
		if c != nil {
			c.Close()
		}
	}()
	for time.Now().Before(deadline) {
		if !pace() {
			return
		}
		if c == nil {
			var err error
			if c, err = wire.Dial(tgt.wireAddr, wire.ClientConfig{Timeout: 10 * time.Second}); err != nil {
				count(tgt, 0, err)
				time.Sleep(50 * time.Millisecond)
				continue
			}
		}
		reqs := make([]*serve.Request, wireBatch)
		for i := range reqs {
			reqs[i] = genRequest(rng, st.ModelIn, st.ModelWindow, actuals, envs)
		}
		t0 := time.Now()
		replies, err := c.Predict(reqs)
		observe(tgt, obs.MS(time.Since(t0)))
		if err != nil {
			count(tgt, 0, err)
			c.Close()
			c = nil
			continue
		}
		for _, rep := range replies {
			count(tgt, rep.Status, nil)
		}
	}
}

// streamWorker drives -proto stream: one subscribe-mode connection pinned
// to one environment, lock-step window→prediction round trips (each one
// latency sample), resubscribing after errors. Windows take the shape the
// subscription's acknowledgement names.
func streamWorker(tgt *target, rng *rand.Rand, deadline time.Time,
	pace func() bool, observe func(*target, float64), count func(*target, int, error),
	actuals float64, envs int, worker int) {
	env := envmeta.Environment{
		Testbed: "loadgen", SUT: "loadgen", Testcase: "load",
		Build: fmt.Sprintf("B%d", 1+worker%envs),
	}
	for time.Now().Before(deadline) {
		c, err := wire.Dial(tgt.wireAddr, wire.ClientConfig{Timeout: 10 * time.Second})
		if err != nil {
			count(tgt, 0, err)
			time.Sleep(50 * time.Millisecond)
			continue
		}
		stm, err := c.Subscribe(env, "")
		if err != nil {
			count(tgt, 0, err)
			c.Close()
			time.Sleep(50 * time.Millisecond)
			continue
		}
		// A wedged peer cannot park the worker past the run.
		_ = stm.SetDeadline(deadline.Add(10 * time.Second))
		ack := stm.Ack()
		for time.Now().Before(deadline) {
			if !pace() {
				break
			}
			req := genRequest(rng, ack.In, ack.Window, actuals, envs)
			wnd := wire.Window{Seq: stm.NextSeq(), CF: req.CF, Window: req.Window, Actual: req.Actual}
			t0 := time.Now()
			if err := stm.Send(wnd); err != nil {
				count(tgt, 0, err)
				break
			}
			p, err := stm.Recv()
			observe(tgt, obs.MS(time.Since(t0)))
			if err != nil {
				count(tgt, 0, err)
				break
			}
			count(tgt, p.Status, nil)
		}
		stm.Close()
	}
}

// checkAlerts fetches the monitoring plane's active alerts and turns a
// firing alert into a non-zero exit — so a load run doubles as an SLO
// gate in scripts and CI.
func checkAlerts(w io.Writer, client *http.Client, base string) error {
	resp, err := client.Get(strings.TrimRight(base, "/") + "/alerts")
	if err != nil {
		return fmt.Errorf("alerts: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("alerts: status %d", resp.StatusCode)
	}
	var payload struct {
		Data []struct {
			Name        string            `json:"name"`
			State       string            `json:"state"`
			Annotations map[string]string `json:"annotations"`
			Value       float64           `json:"value"`
		} `json:"data"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		return fmt.Errorf("alerts: decode: %w", err)
	}
	firing := 0
	for _, a := range payload.Data {
		if a.State == "firing" {
			firing++
		}
		fmt.Fprintf(w, "alert %s %s value=%.3g %s\n", a.State, a.Name, a.Value, a.Annotations["summary"])
	}
	if firing > 0 {
		return fmt.Errorf("%d alert(s) firing", firing)
	}
	fmt.Fprintf(w, "alerts: %d active, none firing\n", len(payload.Data))
	return nil
}

// printSlowTraces fetches the target's retained traces and prints the n
// slowest as indented span trees — the per-request attribution that
// replaced the old slowest-bucket exemplar line. A target without a
// /traces endpoint (old binary) is skipped quietly.
func printSlowTraces(w io.Writer, client *http.Client, base, prefix string, n int) {
	resp, err := client.Get(base + "/traces?limit=0")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	var tl obs.TraceList
	if err := json.NewDecoder(resp.Body).Decode(&tl); err != nil {
		return
	}
	sort.Slice(tl.Traces, func(i, j int) bool { return tl.Traces[i].DurationMS > tl.Traces[j].DurationMS })
	if len(tl.Traces) > n {
		tl.Traces = tl.Traces[:n]
	}
	for _, sum := range tl.Traces {
		tResp, err := client.Get(base + "/traces/" + sum.TraceID)
		if err != nil {
			continue
		}
		var tr obs.Trace
		err = json.NewDecoder(tResp.Body).Decode(&tr)
		tResp.Body.Close()
		if err != nil {
			continue
		}
		fmt.Fprintf(w, "%s slow trace %s: %.2fms outcome=%s spans=%d\n",
			prefix, tr.TraceID, tr.DurationMS, tr.Outcome, len(tr.Spans))
		printSpanTree(w, tr.Spans, "", 1)
	}
}

// printSpanTree renders spans parented on parentID, indented one level per
// generation. Spans whose parent is outside the trace (the caller's span)
// surface at the root level.
func printSpanTree(w io.Writer, spans []obs.Span, parentID string, depth int) {
	known := make(map[string]bool, len(spans))
	for _, sp := range spans {
		known[sp.SpanID] = true
	}
	for _, sp := range spans {
		local := known[sp.ParentID]
		if (parentID == "" && local) || (parentID != "" && sp.ParentID != parentID) {
			continue
		}
		fmt.Fprintf(w, "%s%s %.2fms %s\n", strings.Repeat("  ", depth), sp.Name, sp.DurationMS, attrLine(sp.Attrs))
		printSpanTree(w, spans, sp.SpanID, depth+1)
	}
}

// attrLine renders span attrs as stable k=v pairs.
func attrLine(attrs map[string]string) string {
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+attrs[k])
	}
	return strings.Join(parts, " ")
}

// fetchStats decodes GET /statz.
func fetchStats(client *http.Client, base string) (serve.Stats, error) {
	var st serve.Stats
	resp, err := client.Get(base + "/statz")
	if err != nil {
		return st, fmt.Errorf("statz: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("statz: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("statz: decode: %w", err)
	}
	return st, nil
}

// genRequest draws one synthetic request matching the model's shape; with
// probability actuals it carries ground truth near the window mean, so a
// quality-enabled server gets observations to chew on. envs > 1 spreads
// requests over that many distinct environment tuples (the build varies),
// which is what exercises a proxy's affinity routing.
func genRequest(rng *rand.Rand, in, window int, actuals float64, envs int) *serve.Request {
	req := &serve.Request{
		CF:      make([]float64, in),
		Window:  make([]float64, window),
		Testbed: "loadgen", SUT: "loadgen", Testcase: "load",
		Build: fmt.Sprintf("B%d", 1+rng.Intn(envs)),
	}
	for j := range req.CF {
		req.CF[j] = rng.NormFloat64()
	}
	for j := range req.Window {
		req.Window[j] = 50 + 5*rng.NormFloat64()
	}
	if actuals > 0 && rng.Float64() < actuals {
		a := 50 + 5*rng.NormFloat64()
		req.Actual = &a
	}
	return req
}

// postPredict sends one prediction request, returning the status code.
func postPredict(client *http.Client, base string, req *serve.Request) (int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	resp, err := client.Post(base+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	return resp.StatusCode, nil
}
