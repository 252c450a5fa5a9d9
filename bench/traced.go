package main

// The traced run: the workload once without and once with the span
// recorder (their difference is the tracing overhead), then the probes.
// It reports every per-layer metric and writes the spans to
// bench/outputs/trace_<workload>.jsonl.

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"
)

// tracedShare is the part of --seconds each of the two passes of a traced
// run measures; the probes take the rest.
const tracedShare = 1.0 / 3

// perLayerUnits names every per-layer metric a traced run reports.
var perLayerUnits = map[string]string{
	"client.rtt_ms": "ms", "client.p99_ms": "ms", "client.late_p90_ms": "ms", "client.late_p99_ms": "ms",
	"client.attributed_pct": "%", "client.unattributed_ms": "ms",
	"proxy.http_self_ms": "ms", "proxy.wire_batch_overhead_ms": "ms", "proxy.attempts_per_request": "count",
	"serve.http_self_ms": "ms", "serve.do_ms": "ms", "serve.do_actual_ms": "ms",
	"serve.admission_overhead_ms": "ms", "quality.inline_overhead_us": "us",
	"serve.dobatch32_ms": "ms", "serve.batch_size_mean": "count", "serve.bundle_predict_b32_us": "us",
	"wire.encode_batch64_us": "us", "wire.decode_batch64_us": "us", "wire.codec_allocs_per_batch": "count",
	"wire.window_codec_us": "us", "wire.batch_transport_ms": "ms", "wire.stream_rtt_ms": "ms",
	"infer.f64_b1_us": "us", "infer.f64_b64_us_per_row": "us",
	"infer.f32_b1_us": "us", "infer.f32_b8_us_per_row": "us", "infer.f32_b32_us_per_row": "us",
	"tensor.gemm_f32_us": "us", "tensor.gemm_f64_us": "us", "tensor.gemm_f32_gflops": "GFLOP/s",
	"core.tape_b32_ms": "ms", "nn.train_step_b32_ms": "ms",
	"pipeline.incremental_train_ms": "ms", "pipeline.score_exec_ms": "ms",
	"modelserver.publish_ms": "ms", "modelserver.reload_ms": "ms",
	"setup.corpus_s": "s", "setup.train_s": "s", "setup.publish_load_s": "s", "setup.ready_s": "s",
	"process.cpu_us_per_window": "us", "process.peak_rss_mb": "MB", "process.heap_live_mb": "MB",
	"process.gc_cycles": "count", "process.gc_pause_ms": "ms",
	"bench.trace_overhead_pct": "%",
}

// traced runs the workload twice for a third of --seconds each, first as
// it is and then with the recorder on a fresh fleet, then the probes, and
// reports the per-layer metrics. It takes over (and closes) e's fleet.
func traced(e *env, o options, parts setupParts, scratch string) (*result, error) {
	w, m, pl := o.workload, e.m, e.pool
	ops := o.ops
	if ops == 0 {
		ops = w.ops(o.seconds * tracedShare)
	}
	plain, err := pass(e, w, ops, o.warmup)
	e.f.close()
	if plain == nil {
		return nil, err
	}

	rec := &recorder{}
	f, err := startFleet(m.tr, filepath.Join(scratch, "fleet-traced"), w.precision, rec.wrapHandler, &stopwatch{mark: time.Now()}, &setupParts{})
	if err != nil {
		return nil, err
	}
	traced, passErr := pass(&env{m: m, f: f, pool: pl, seed: e.seed, rec: rec}, w, ops, o.warmup)
	heapMB := heapLiveMB()
	f.close()
	if traced == nil {
		return nil, passErr
	}

	p, err := runProbes(m, pl, scratch)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	p.set("setup.corpus_s", parts.Corpus.Seconds())
	p.set("setup.train_s", parts.Train.Seconds())
	p.set("setup.publish_load_s", parts.PublishLoad.Seconds())
	p.set("setup.ready_s", parts.Ready.Seconds())

	// What the workload's own spans say. Self times are means over the
	// traced operations, so that the layers add up to the round trip. The
	// root span's self time is what no span inside it covers, the client's
	// own encoding and the loopback hops: the unattributed remainder.
	self := selfTimes(rec.spans)
	roots := float64(max(len(self["client"]), 1))
	rtt, named := 0.0, 0.0
	for _, s := range rec.spans {
		if s.Name == "client" {
			rtt += float64(s.EndUS-s.StartUS) / roots / 1000
		}
	}
	names := make([]string, 0, len(self))
	for name := range self {
		if name != "client" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(logw, "where one operation (%s) went: mean of %d traced operations, round trip %.3f ms\n", w.unit, len(self["client"]), rtt)
	for _, name := range names {
		perOp := sum(self[name]) / roots / 1000
		named += perOp
		fmt.Fprintf(logw, "  %-28s %8.3f ms self  %5.1f%%  (%d spans)\n", name, perOp, 100*perOp/rtt, len(self[name]))
	}
	fmt.Fprintf(logw, "  %-28s %8.3f ms       %5.1f%%\n", "unattributed (client self)", rtt-named, 100*(rtt-named)/rtt)
	p.set("client.rtt_ms", rtt)
	p.set("client.attributed_pct", 100*named/rtt)
	p.set("client.unattributed_ms", rtt-named)
	late := traced.ts.each(latenessOf)
	p.set("client.p99_ms", percentile(traced.ts.each(latencyOf), 0.99))
	p.set("client.late_p90_ms", percentile(late, 0.9))
	p.set("client.late_p99_ms", percentile(late, 0.99))
	p.set("serve.batch_size_mean", traced.batchMean)
	p.set("process.cpu_us_per_window", us(traced.after.cpu-traced.before.cpu)/traced.answered())
	p.set("process.peak_rss_mb", peakRSSMB())
	p.set("process.heap_live_mb", heapMB)
	p.set("process.gc_cycles", float64(traced.after.gcCycles-traced.before.gcCycles))
	p.set("process.gc_pause_ms", float64(traced.after.gcPauseNS-traced.before.gcPauseNS)/1e6)
	plainP50, tracedP50 := median(plain.ts.each(latencyOf)), median(traced.ts.each(latencyOf))
	p.set("bench.trace_overhead_pct", 100*(tracedP50-plainP50)/plainP50)

	for name := range perLayerUnits {
		if _, ok := p[name]; !ok {
			return nil, fmt.Errorf("traced run did not measure %s", name)
		}
	}
	tracePath := filepath.Join("bench", "outputs", "trace_"+w.name+".jsonl")
	if err := rec.write(tracePath); err != nil {
		return nil, err
	}
	fmt.Fprintf(logw, "%d spans written to %s\n", len(rec.spans), tracePath)

	res := &result{Attempted: traced.total.attempted, Failed: traced.total.failed, Metrics: p}
	err = verdict(w, traced, passErr)
	res.Correct = err == nil
	fmt.Fprintf(logw, "operations: %d attempted, %d succeeded, %d failed\n", res.Attempted, res.Attempted-res.Failed, res.Failed)
	return res, err
}
