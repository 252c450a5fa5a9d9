package main

// Per-layer probes: the same windows, one goroutine, fixed counts,
// straight into each layer's public entry point. Differences between
// adjacent boundaries give the overheads. Every traced run of every
// workload runs the same battery, so a layer's number is comparable
// whichever workload reported it.

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"env2vec/internal/autodiff"
	"env2vec/internal/dataset"
	"env2vec/internal/nn"
	"env2vec/internal/pipeline"
	"env2vec/internal/serve"
	"env2vec/internal/tensor"
	"env2vec/internal/wire"
)

// medianOf times f reps times, after a tenth as many warm-up calls, and
// returns the median duration of one call.
func medianOf(reps int, f func()) time.Duration {
	for i := 0; i < reps/10+1; i++ {
		f()
	}
	d := make([]float64, reps)
	for i := range d {
		t0 := time.Now()
		f()
		d[i] = float64(time.Since(t0))
	}
	return time.Duration(median(d))
}

// medianOfEach is medianOf for calls too short to time one by one: each
// sample is the mean of inner calls.
func medianOfEach(reps, inner int, f func()) time.Duration {
	return medianOf(reps, func() {
		for i := 0; i < inner; i++ {
			f()
		}
	}) / time.Duration(inner)
}

// allocsOf returns the heap allocations of one call of f, averaged.
func allocsOf(reps int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(reps)
}

// probes collects per-layer metrics by name; perLayerUnits has the units.
type probes map[string]metric

func (p probes) set(name string, v float64)      { p[name] = metric{v, perLayerUnits[name]} }
func (p probes) ms(name string, d time.Duration) { p.set(name, ms(d)) }
func (p probes) us(name string, d time.Duration) { p.set(name, us(d)) }

// runProbes measures every layer below the workloads.
func runProbes(m *model, pl *pool, scratch string) (probes, error) {
	p := probes{}
	probeKernels(p)
	if err := probeModel(p, m); err != nil {
		return nil, err
	}
	probeCodec(p, pl)
	if err := probeFleetJSON(p, m, pl, filepath.Join(scratch, "probe-f64")); err != nil {
		return nil, err
	}
	if err := probeFleetWire(p, m, pl, filepath.Join(scratch, "probe-f32")); err != nil {
		return nil, err
	}
	return p, nil
}

// probeKernels times the GEMMs at the recurrent-step shape of a full
// batch: 32 rows of hidden state (32) times [Uz|Ur] (32×64).
func probeKernels(p probes) {
	const rows, inner, cols = 32, 32, 64
	rng := rand.New(rand.NewSource(1))
	a, b, out := tensor.New(rows, inner), tensor.New(inner, cols), tensor.New(rows, cols)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a32, b32, out32 := tensor.New32(rows, inner), tensor.New32(inner, cols), tensor.New32(rows, cols)
	for i, v := range a.Data {
		a32.Data[i] = float32(v)
	}
	for i, v := range b.Data {
		b32.Data[i] = float32(v)
	}
	f64 := medianOfEach(200, 20, func() { tensor.MatMulBlockedInto(out, a, b) })
	f32 := medianOfEach(200, 200, func() { tensor.MatMulBlockedInto32(out32, a32, b32) })
	p.us("tensor.gemm_f64_us", f64)
	p.us("tensor.gemm_f32_us", f32)
	// Operations counted from the shape: one multiply and one add per term.
	p.set("tensor.gemm_f32_gflops", 2*rows*inner*cols/float64(f32.Nanoseconds()))
}

// probeModel times the three forward passes and the training step.
func probeModel(p probes, m *model) error {
	tr, series := m.tr, m.replay[0]
	exs := dataset.WindowExamples(series, windowLen)
	b1, b8, b32, b64 := scaledBatch(tr, exs[:1]), scaledBatch(tr, exs[:8]), scaledBatch(tr, exs[:32]), scaledBatch(tr, exs)
	out := make([]float64, windowsPerExe)
	p.us("infer.f64_b1_us", medianOf(400, func() { tr.Model.PredictInto(out[:1], b1) }))
	p.us("infer.f64_b64_us_per_row", medianOf(100, func() { tr.Model.PredictInto(out, b64) })/windowsPerExe)
	p32 := tr.Model.NewPredictor32()
	p.us("infer.f32_b1_us", medianOf(400, func() { p32.PredictInto(out[:1], b1) }))
	p.us("infer.f32_b8_us_per_row", medianOf(200, func() { p32.PredictInto(out[:8], b8) })/8)
	p.us("infer.f32_b32_us_per_row", medianOf(200, func() { p32.PredictInto(out[:32], b32) })/32)
	p.ms("core.tape_b32_ms", medianOf(60, func() { tr.Model.PredictTape(b32) }))

	scratch, err := cloneResult(tr)
	if err != nil {
		return err
	}
	opt, rng := nn.NewAdam(retrainLR), rand.New(rand.NewSource(1))
	p.ms("nn.train_step_b32_ms", medianOf(40, func() {
		tape := autodiff.NewTape()
		tape.Backward(scratch.Model.Loss(tape, b32, true, rng))
		opt.Step(scratch.Model.Params())
	}))
	var trainErr error
	p.ms("pipeline.incremental_train_ms", medianOf(20, func() {
		if _, err := pipeline.IncrementalTrain(scratch, []*dataset.Series{series}, 1, retrainLR); err != nil {
			trainErr = err
		}
	}))
	wf := pipeline.NewWorkflow(scratch, detectConfig)
	p.ms("pipeline.score_exec_ms", medianOf(40, func() { wf.ProcessExecution(modelName, series) }))
	return trainErr
}

// probeCodec times the binary codec on one execution's frame and on one
// streamed window, requests and answers together.
func probeCodec(p probes, pl *pool) {
	reqs := make([]*serve.Request, windowsPerExe)
	replies := make([]wire.Reply, windowsPerExe)
	for k := range reqs {
		w := pl.at(0, k)
		reqs[k] = &w.req
		replies[k] = wire.Reply{RequestID: strconv.Itoa(k), Status: http.StatusOK, Prediction: w.ref, Model: modelName, ModelVersion: 1, BatchSize: 32}
	}
	var reqBuf, repBuf []byte
	encode := func() {
		reqBuf = wire.AppendPredictBatch(reqBuf[:0], reqs)
		repBuf = wire.AppendPredictReplies(repBuf[:0], replies)
	}
	decode := func() {
		if _, err := wire.DecodePredictBatch(reqBuf); err != nil {
			panic(err) // the bytes came from the encoder above
		}
		if _, err := wire.DecodePredictReplies(repBuf); err != nil {
			panic(err)
		}
	}
	p.us("wire.encode_batch64_us", medianOf(300, encode))
	p.us("wire.decode_batch64_us", medianOf(300, decode))
	p.set("wire.codec_allocs_per_batch", allocsOf(200, func() { encode(); decode() }))

	w := pl.at(0, 0)
	var buf []byte
	p.us("wire.window_codec_us", medianOfEach(300, 10, func() {
		buf = wire.AppendWindow(buf[:0], wire.Window{Seq: 1, CF: w.req.CF, Window: w.req.Window})
		if _, err := wire.DecodeWindow(buf); err != nil {
			panic(err)
		}
		buf = wire.AppendPrediction(buf[:0], wire.Prediction{Seq: 1, Status: http.StatusOK, Value: w.ref, ModelVersion: 1})
		if _, err := wire.DecodePrediction(buf); err != nil {
			panic(err)
		}
	}))
}

// cycle returns the pool's windows one after another, for ever.
func cycle(pl *pool) func() *window {
	i := -1
	return func() *window {
		i = (i + 1) % len(pl.windows)
		return &pl.windows[i]
	}
}

// probeFleetJSON measures the float64 JSON path from the inside out on a
// fleet of its own: Do, the HTTP handler, then the proxy in lock step with
// the span wrappers on; and the registry's publish and reload.
func probeFleetJSON(p probes, m *model, pl *pool, dir string) error {
	rec := &recorder{}
	f, err := startFleet(m.tr, dir, serve.PrecisionFloat64, rec.wrapHandler, &stopwatch{mark: time.Now()}, &setupParts{})
	if err != nil {
		return err
	}
	defer f.close()
	srv := f.backends[0].srv
	next := cycle(pl)
	var opErr error
	do := func(withActual bool) func() {
		return func() {
			w := next()
			req := w.req
			if withActual {
				req.Actual = &w.actual
			}
			if _, _, err := srv.Do(&req); err != nil {
				opErr = err
			}
		}
	}
	doMS := medianOf(150, do(false))
	doActualMS := medianOf(150, do(true))
	p.ms("serve.do_ms", doMS)
	p.ms("serve.do_actual_ms", doActualMS)
	p.set("serve.admission_overhead_ms", ms(doMS)-p["infer.f64_b1_us"].Value/1000)

	// The verdict and the quality monitor cost microseconds, which one
	// request's linger timer drowns; a full batch does not linger, so the
	// cost shows as the difference between a batch with actuals and the
	// same batch without, taken in pairs.
	reqs := make([]*serve.Request, 32)
	batch := func(withActual bool) time.Duration {
		for k := range reqs {
			w := pl.at(0, k)
			req := w.req
			if withActual {
				req.Actual = &w.actual
			}
			reqs[k] = &req
		}
		t0 := time.Now()
		for _, r := range srv.DoBatch(reqs) {
			if r.Err != nil {
				opErr = r.Err
			}
		}
		return time.Since(t0)
	}
	diffs := make([]float64, 300)
	for i := range diffs {
		diffs[i] = float64(batch(true)-batch(false)) / 32
	}
	p.us("quality.inline_overhead_us", time.Duration(median(diffs)))

	handlerMS := medianOf(150, func() {
		w := next()
		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(w.body)))
		if rr.Code != http.StatusOK {
			opErr = fmt.Errorf("serve handler: status %d", rr.Code)
		}
	})
	p.ms("serve.http_self_ms", handlerMS-doActualMS)

	// Lock-step requests through the whole JSON path, spans on.
	e := &env{m: m, f: f, pool: pl, rec: rec}
	js := newJSONSession(e)
	defer js.close()
	const lockstep = 200
	for i := 0; i < lockstep; i++ {
		w, id := next(), "probe-"+strconv.Itoa(i)
		start := time.Now()
		_, err := js.post(js.clients[0], f.proxyURL+"/predict", id, w.body)
		rec.add(id, clientSpanID(id), "", "client", start, time.Since(start))
		if err != nil {
			opErr = err
		}
	}
	self := selfTimes(rec.spans)
	p.set("proxy.http_self_ms", mean(self["proxy"])/1000)
	p.set("proxy.attempts_per_request", float64(rec.count("serve"))/float64(max(rec.count("proxy"), 1)))

	// Registry: publish (fsync'd append) and the time until both backends
	// serve the new version.
	const publishes = 8
	var pub, reload []float64
	for i := 0; i < publishes; i++ {
		t0 := time.Now()
		ver, err := pipeline.PublishForServing(f.regClient, modelName, m.tr)
		t1 := time.Now()
		if err == nil {
			err = f.awaitVersion(ver, opTimeout)
		}
		if err != nil {
			return err
		}
		pub, reload = append(pub, float64(t1.Sub(t0))), append(reload, float64(time.Since(t1)))
	}
	p.ms("modelserver.publish_ms", time.Duration(median(pub)))
	p.ms("modelserver.reload_ms", time.Duration(median(reload)))
	return opErr
}

// probeFleetWire measures the float32 binary path on a fleet of its own:
// the bundle's forward stage, DoBatch, a direct wire round trip, the same
// frames through the proxy's wire front, and a lock-step stream.
func probeFleetWire(p probes, m *model, pl *pool, dir string) error {
	f, err := startFleet(m.tr, dir, serve.PrecisionFloat32, nil, &stopwatch{mark: time.Now()}, &setupParts{})
	if err != nil {
		return err
	}
	defer f.close()
	srv := f.backends[0].srv
	var opErr error

	// The bundle consumes its batch, so each call gets a fresh copy.
	raw := dataset.ToBatch(dataset.WindowExamples(m.replay[0], windowLen)[:32], m.tr.Schema)
	bundle, out := srv.Bundle(), make([]float64, 32)
	work := &nn.Batch{X: tensor.New(32, raw.X.Cols), Window: tensor.New(32, raw.Window.Cols), EnvIDs: raw.EnvIDs}
	p.us("serve.bundle_predict_b32_us", medianOf(200, func() {
		copy(work.X.Data, raw.X.Data)
		copy(work.Window.Data, raw.Window.Data)
		bundle.PredictInto(out, work)
	}))

	frame := func(exe, n int) []*serve.Request {
		reqs := make([]*serve.Request, n)
		for k := range reqs {
			reqs[k] = &pl.at(exe, k).req
		}
		return reqs
	}
	check := func(results []serve.BatchResult) {
		for _, r := range results {
			if r.Err != nil {
				opErr = r.Err
			}
		}
	}
	doBatch := medianOf(150, func() { check(srv.DoBatch(frame(0, 32))) })
	p.ms("serve.dobatch32_ms", doBatch)

	direct, err := wire.Dial(f.backends[0].wireAddr, wire.ClientConfig{Timeout: opTimeout})
	if err != nil {
		return err
	}
	defer direct.Close()
	viaProxy, err := wire.Dial(f.proxyWire, wire.ClientConfig{Timeout: opTimeout})
	if err != nil {
		return err
	}
	defer viaProxy.Close()
	predict := func(c *wire.Client, n int) func() {
		exe := 0
		return func() {
			exe = (exe + 1) % pl.executions()
			if _, err := c.Predict(frame(exe, n)); err != nil {
				opErr = err
			}
		}
	}
	p.ms("wire.batch_transport_ms", medianOf(150, predict(direct, 32))-doBatch)
	direct64 := medianOf(150, predict(direct, windowsPerExe))
	p.ms("proxy.wire_batch_overhead_ms", medianOf(150, predict(viaProxy, windowsPerExe))-direct64)

	sc, err := wire.Dial(f.backends[0].wireAddr, wire.ClientConfig{Timeout: opTimeout})
	if err != nil {
		return err
	}
	defer sc.Close()
	r := &pl.at(0, 0).req
	st, err := sc.Subscribe(envOf(r), r.ChainID)
	if err != nil {
		return err
	}
	k := 0
	p.ms("wire.stream_rtt_ms", medianOf(150, func() {
		w := pl.at(0, k%windowsPerExe)
		k++
		if err := st.SetDeadline(time.Now().Add(opTimeout)); err != nil {
			opErr = err
			return
		}
		if err := st.Send(wire.Window{Seq: st.NextSeq(), CF: w.req.CF, Window: w.req.Window}); err != nil {
			opErr = err
			return
		}
		if _, err := st.Recv(); err != nil {
			opErr = err
		}
	}))
	return opErr
}
