package main

// The four workloads. Each opens its client connections once and then
// runs a given number of operations; the runner calls it twice, for the
// warm-up and for the measured interval, so the schedule and the request
// ids continue from one to the other.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"env2vec/internal/dataset"
	"env2vec/internal/obs"
	"env2vec/internal/pipeline"
	"env2vec/internal/serve"
	"env2vec/internal/wire"
)

const (
	opTimeout = time.Second
	// latencyLimit is the open loops' limit: a window answered later than
	// this after its due time earns nothing towards windows_per_s.
	latencyLimit = 10 * time.Millisecond
	generators   = 2 // client goroutines of an open loop

	jsonRate = 300 // requests/s over the two connections of fleet_json_open
	// windows/s over the two generators of stream_wire_open: a burst every
	// 16 ms per generator, four times its 3.7 ms round trip, so that the
	// synchronous generator keeps its schedule even while the host takes the
	// processor away (round trips of 9 ms at the p90 on a bad quarter hour).
	streamRate  = 1000
	streamBurst = 8 // consecutive timesteps one stream sends at once

	frameWindows = 32 // batch_wire_closed: one full forward batch (e2vserve -max-batch)
	framesPerExe = windowsPerExe / frameWindows

	publishEvery           = 50 // retrain_cycle iterations between publishes
	scoredPerIter          = 4  // held-out executions scored per iteration
	retrainTrainExecutions = 16 // new-build executions it learns from, in turn
	retrainLR              = 0.001

	// Closed loops run a fixed number of operations, sized from the rate
	// the reference box (outputs/baseline.json) sustains, so that the same
	// work is timed on every run.
	batchFramesPerSecond  = 650
	retrainItersPerSecond = 30
)

// env is what a workload runs against.
type env struct {
	m    *model
	f    *fleet
	pool *pool
	seed int64
	rec  *recorder // nil unless traced
}

// workload describes one of the four and knows how to open a session.
type workload struct {
	name      string
	precision serve.Precision
	unit      string // what one operation is
	// rate is the operations per second a run's operation count is sized
	// from, and pass the count it is rounded down to a multiple of: one
	// pass over the pool, so that every window weighs the same in mae
	// whatever the seed.
	rate float64
	pass int
	dial func(e *env) (session, error)
}

// ops is how many operations a run sized for the given length measures.
// Runs shorter than one pass keep their raw count.
func (w *workload) ops(seconds float64) int {
	n := int(w.rate * seconds)
	if n >= w.pass {
		n -= n % w.pass
	}
	return max(n, 1)
}

// session is a workload with its connections open.
type session interface {
	// run performs n operations, starting now, and returns what each
	// generator saw.
	run(n int) tallies
	close()
}

var workloads = []*workload{
	{
		name: "fleet_json_open", precision: serve.PrecisionFloat64,
		unit: "1 JSON request = 1 window",
		rate: jsonRate, pass: numChains * windowsPerExe,
		dial: dialJSON,
	},
	{
		name: "stream_wire_open", precision: serve.PrecisionFloat32,
		unit: "1 streamed window",
		rate: streamRate, pass: numChains * windowsPerExe,
		dial: dialStream,
	},
	{
		name: "batch_wire_closed", precision: serve.PrecisionFloat32,
		unit: "1 batch frame = half an execution = 32 windows",
		rate: batchFramesPerSecond, pass: numChains * framesPerExe,
		dial: dialBatch,
	},
	{
		name: "retrain_cycle", precision: serve.PrecisionFloat64,
		unit: "1 iteration = train on 1 execution + score 4",
		rate: retrainItersPerSecond, pass: 1,
		dial: dialRetrain,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// tolerance is how far an answer may be from the tape reference.
func (e *env) tolerance(p serve.Precision) float64 {
	if p == serve.PrecisionFloat32 {
		return 1e-4 * e.pool.sigma
	}
	return 1e-9 * e.pool.sigma
}

// paceOpen runs one generator of an open loop: operation i is due at
// start + i·gap, and do is called no earlier than that, with the due time
// and how late the call is.
func paceOpen(n int, start time.Time, gap time.Duration, do func(i int, due time.Time, late time.Duration)) {
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * gap)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		do(i, due, time.Since(due))
	}
}

// runGenerators runs one function per generator, each on its goroutine.
func runGenerators(n int, gen func(g int) *tally) tallies {
	parts := make(tallies, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			parts[g] = gen(g)
		}(g)
	}
	wg.Wait()
	return parts
}

// ── fleet_json_open ─────────────────────────────────────────────────────

type jsonSession struct {
	e       *env
	order   []int // one pass over the pool, timestep by timestep
	clients []*http.Client
	next    int // operations issued so far, warm-up included
}

// predictReply is what the client reads of an answer. The trace block is
// the program's own account of its stages; a traced run turns it into
// spans under the backend's.
type predictReply struct {
	Prediction float64 `json:"prediction"`
	Trace      struct {
		Spans []obs.Span `json:"spans"`
	} `json:"trace"`
}

func dialJSON(e *env) (session, error) { return newJSONSession(e), nil }

func newJSONSession(e *env) *jsonSession {
	s := &jsonSession{e: e, order: timestepOrder(e.seed, e.pool.executions())}
	for g := 0; g < generators; g++ {
		s.clients = append(s.clients, &http.Client{
			Timeout:   opTimeout,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		})
	}
	return s
}

func (s *jsonSession) close() {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
}

func (s *jsonSession) run(n int) tallies {
	base := s.next
	s.next += n
	gap := time.Second * generators / jsonRate
	start := time.Now().Add(gap)
	tol := s.e.tolerance(serve.PrecisionFloat64)
	url := s.e.f.proxyURL + "/predict"
	return runGenerators(generators, func(g int) *tally {
		t := &tally{}
		mine := (n - g + generators - 1) / generators // operations g, g+2, …
		// The second connection sends half a gap after the first.
		paceOpen(mine, start.Add(time.Duration(g)*gap/generators), gap, func(i int, due time.Time, late time.Duration) {
			op := base + g + i*generators
			w := &s.e.pool.windows[s.order[op%len(s.order)]]
			id := "json-" + strconv.Itoa(op)
			pred, err := s.post(s.clients[g], url, id, w.body)
			lat := time.Since(due)
			s.e.rec.addClient(id, due, lat, late)
			if err != nil {
				t.fail(due, lat, late)
				return
			}
			t.answer(due, lat, late, latencyLimit, []*window{w}, []float64{pred}, tol)
		})
		return t
	})
}

func (s *jsonSession) post(c *http.Client, url, id string, body []byte) (float64, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, id)
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var reply predictReply
	if err := json.Unmarshal(data, &reply); err != nil {
		return 0, err
	}
	if s.e.rec != nil {
		s.e.rec.addStages(id, reply.Trace.Spans)
	}
	return reply.Prediction, nil
}

// addStages records the stages a backend reported in its answer as
// children of the harness's span around that backend.
func (r *recorder) addStages(id string, stages []obs.Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := ""
	for i := len(r.spans) - 1; i >= 0 && parent == ""; i-- {
		if r.spans[i].TraceID == id && r.spans[i].Name == "serve" {
			parent = r.spans[i].SpanID
		}
	}
	for _, st := range stages {
		if st.Name == "serve.request" {
			continue // the harness's own span covers it
		}
		r.spans = append(r.spans, span{
			TraceID: id, SpanID: st.SpanID, ParentID: parent, Name: st.Name,
			StartUS: st.StartUnixUS, EndUS: st.StartUnixUS + int64(math.Round(st.DurationMS*1000)),
		})
	}
}

// ── stream_wire_open ────────────────────────────────────────────────────

type streamSession struct {
	e *env
	// streams[g] are generator g's subscriptions, one per execution it
	// replays; exes[g] are those executions.
	streams [generators][]*wire.Stream
	exes    [generators][]int
	next    int // bursts issued so far per generator, warm-up included
}

func dialStream(e *env) (session, error) {
	s := &streamSession{e: e}
	order := executionOrder(e.seed, e.pool.executions())
	per := len(order) / generators
	addr := e.f.backends[0].wireAddr
	for g := 0; g < generators; g++ {
		s.exes[g] = order[g*per : (g+1)*per]
		for _, exe := range s.exes[g] {
			c, err := wire.Dial(addr, wire.ClientConfig{Timeout: opTimeout})
			if err != nil {
				s.close()
				return nil, err
			}
			r := &e.pool.at(exe, 0).req
			st, err := c.Subscribe(envOf(r), r.ChainID)
			if err != nil {
				c.Close()
				s.close()
				return nil, err
			}
			s.streams[g] = append(s.streams[g], st)
		}
	}
	return s, nil
}

func (s *streamSession) close() {
	for _, sts := range s.streams {
		for _, st := range sts {
			st.Close()
		}
	}
}

func (s *streamSession) run(n int) tallies {
	bursts := max(n/(generators*streamBurst), 1)
	base := s.next
	s.next += bursts
	gap := time.Second * generators * streamBurst / streamRate
	start := time.Now().Add(gap)
	tol := s.e.tolerance(serve.PrecisionFloat32)
	const burstsPerExe = windowsPerExe / streamBurst
	return runGenerators(generators, func(g int) *tally {
		t := &tally{}
		var broken error
		ws := make([]*window, streamBurst)
		paceOpen(bursts, start, gap, func(i int, due time.Time, late time.Duration) {
			b := base + i
			slot := (b / burstsPerExe) % len(s.exes[g])
			st, exe := s.streams[g][slot], s.exes[g][slot]
			first := (b % burstsPerExe) * streamBurst
			for k := range ws {
				ws[k] = s.e.pool.at(exe, first+k)
			}
			if broken == nil {
				broken = s.burst(st, ws, due, late, t, tol, g, b)
			} else {
				for range ws {
					t.fail(due, time.Since(due), late)
				}
			}
		})
		return t
	})
}

// burst sends the windows and reads their predictions, which may come
// back in any order; every window of a burst is as late as the burst. A
// transport error breaks the stream for good.
func (s *streamSession) burst(st *wire.Stream, ws []*window, due time.Time, late time.Duration, t *tally, tol float64, g, b int) error {
	if err := st.SetDeadline(time.Now().Add(opTimeout)); err != nil {
		return err
	}
	firstSeq := uint64(0)
	for k, w := range ws {
		seq := st.NextSeq()
		if k == 0 {
			firstSeq = seq
		}
		if err := st.Send(wire.Window{Seq: seq, CF: w.req.CF, Window: w.req.Window}); err != nil {
			for range ws {
				t.fail(due, time.Since(due), late)
			}
			return err
		}
	}
	for got := 0; got < len(ws); got++ {
		p, err := st.Recv()
		lat := time.Since(due)
		if err != nil {
			for ; got < len(ws); got++ {
				t.fail(due, lat, late)
			}
			return err
		}
		k := int(p.Seq - firstSeq)
		if s.e.rec != nil {
			s.e.rec.addClient(fmt.Sprintf("stream-%d-%d-%d", g, b, k), due, lat, late)
		}
		if p.Status != http.StatusOK || k < 0 || k >= len(ws) {
			t.fail(due, lat, late)
			continue
		}
		t.answer(due, lat, late, latencyLimit, ws[k:k+1], []float64{p.Value}, tol)
	}
	return nil
}

// ── batch_wire_closed ───────────────────────────────────────────────────

type batchSession struct {
	e      *env
	client *wire.Client
	order  []int // executions; each is sent as framesPerExe frames
	next   int
}

func dialBatch(e *env) (session, error) {
	c, err := wire.Dial(e.f.proxyWire, wire.ClientConfig{Timeout: opTimeout})
	if err != nil {
		return nil, err
	}
	return &batchSession{e: e, client: c, order: executionOrder(e.seed, e.pool.executions())}, nil
}

func (s *batchSession) close() { s.client.Close() }

func (s *batchSession) run(n int) tallies {
	t := &tally{}
	tol := s.e.tolerance(serve.PrecisionFloat32)
	ws := make([]*window, frameWindows)
	reqs := make([]*serve.Request, frameWindows)
	preds := make([]float64, frameWindows)
	for i := 0; i < n; i++ {
		op := s.next
		s.next++
		exe := s.order[op/framesPerExe%len(s.order)]
		for k := range ws {
			ws[k] = s.e.pool.at(exe, op%framesPerExe*frameWindows+k)
			reqs[k] = &ws[k].req
		}
		start := time.Now()
		replies, err := s.client.Predict(reqs)
		lat := time.Since(start)
		if s.e.rec != nil {
			s.e.rec.addClient("batch-"+strconv.Itoa(op), start, lat, 0)
		}
		if err == nil {
			for k, r := range replies {
				if r.Status != http.StatusOK {
					err = fmt.Errorf("window %d: status %d: %s", k, r.Status, r.Error)
					break
				}
				preds[k] = r.Prediction
			}
		}
		if err != nil {
			t.fail(start, lat, 0)
			continue
		}
		t.answer(start, lat, 0, 0, ws, preds, tol)
	}
	return tallies{t}
}

// ── retrain_cycle ───────────────────────────────────────────────────────

type retrainSession struct {
	e *env
	// tr is the session's own copy of the trained model: it learns on,
	// while the pool's references stay those of the published original.
	tr       *pipeline.TrainResult
	wf       *pipeline.Workflow
	train    []*dataset.Series // new-build executions without labelled faults
	heldOut  []*dataset.Series // the fault executions first, then fault-free ones
	scoring  []int             // seeded order over heldOut
	faulty   map[*dataset.Series]bool
	next     int
	scorings int // how often a fault execution was scored
	alarmed  int // … and raised at least one alarm
}

func dialRetrain(e *env) (session, error) {
	tr, err := cloneResult(e.m.tr)
	if err != nil {
		return nil, err
	}
	s := &retrainSession{e: e, tr: tr, wf: pipeline.NewWorkflow(tr, detectConfig), faulty: make(map[*dataset.Series]bool)}
	for _, ex := range e.m.corpus.FaultTargets {
		for _, f := range ex.Faults {
			if f.Magnitude > 0 {
				s.faulty[ex.Series] = true
			}
		}
		s.heldOut = append(s.heldOut, ex.Series)
	}
	held := make(map[*dataset.Series]bool)
	for _, h := range s.heldOut {
		held[h] = true
	}
	for _, r := range e.m.replay {
		switch {
		case held[r]:
		case len(s.train) < retrainTrainExecutions:
			s.train = append(s.train, r)
		default:
			s.heldOut = append(s.heldOut, r)
		}
	}
	if len(s.heldOut) < scoredPerIter {
		return nil, errors.New("retrain_cycle: too few held-out executions")
	}
	s.scoring = executionOrder(e.seed, len(s.heldOut))
	// Error models come from each chain's history, as in workflow step 4.
	for chain, series := range e.m.corpus.ChainSeries {
		s.wf.CalibrateChain(chain, series[:len(series)-1])
	}
	return s, nil
}

func (s *retrainSession) close() {}

func (s *retrainSession) run(n int) tallies {
	t := &tally{}
	for i := 0; i < n; i++ {
		it := s.next
		s.next++
		id := "retrain-" + strconv.Itoa(it)
		start := time.Now()
		err := s.iteration(it, id)
		lat := time.Since(start)
		s.e.rec.addClient(id, start, lat, 0)
		if err != nil {
			fmt.Fprintf(logw, "retrain_cycle: iteration %d: %v\n", it, err)
			t.fail(start, lat, 0)
			continue
		}
		t.done(start, lat, 0, (1+scoredPerIter)*windowsPerExe, (1+scoredPerIter)*windowsPerExe)
	}
	return tallies{t}
}

// iteration is one turn of the model owner's loop: learn from the next
// new-build execution, score the next held-out ones, and every
// publishEvery-th time publish and wait until the fleet serves the result.
func (s *retrainSession) iteration(it int, id string) error {
	parent := clientSpanID(id)
	t0 := time.Now()
	fit, err := pipeline.IncrementalTrain(s.tr, s.train[it%len(s.train):it%len(s.train)+1], 1, retrainLR)
	s.e.rec.add(id, id+"/train", parent, "pipeline.incremental_train", t0, time.Since(t0))
	if err != nil {
		return err
	}
	if math.IsNaN(fit.TrainLossLast) || math.IsInf(fit.TrainLossLast, 0) {
		return fmt.Errorf("training diverged: loss %v", fit.TrainLossLast)
	}
	t0 = time.Now()
	for k := 0; k < scoredPerIter; k++ {
		series := s.heldOut[s.scoring[(it*scoredPerIter+k)%len(s.scoring)]]
		alarms := s.wf.ProcessExecution(modelName, series)
		if s.faulty[series] {
			s.scorings++
			if len(alarms) > 0 {
				s.alarmed++
			}
		}
	}
	s.e.rec.add(id, id+"/score", parent, "pipeline.score", t0, time.Since(t0))
	if (it+1)%publishEvery != 0 {
		return nil
	}
	t0 = time.Now()
	ver, err := pipeline.PublishForServing(s.e.f.regClient, modelName, s.tr)
	s.e.rec.add(id, id+"/publish", parent, "modelserver.publish", t0, time.Since(t0))
	if err != nil {
		return err
	}
	t0 = time.Now()
	if err := s.e.f.awaitVersion(ver, opTimeout); err != nil {
		return err
	}
	s.e.rec.add(id, id+"/reload", parent, "modelserver.reload", t0, time.Since(t0))
	return s.checkServed(s.heldOut[it/publishEvery%len(s.heldOut)])
}

// checkServed asks a backend for one execution's predictions and holds
// them to the trainer's own tape: what is served is what was published.
func (s *retrainSession) checkServed(series *dataset.Series) error {
	tr := s.tr
	exs := dataset.WindowExamples(series, windowLen)
	want := tr.YScale.Unscale(tr.Model.PredictTape(scaledBatch(tr, exs)))
	reqs := make([]*serve.Request, len(exs))
	for i, ex := range exs {
		req := requestOf(ex)
		reqs[i] = &req
	}
	tol := 1e-9 * tr.YScale.Sigma
	for i, res := range s.e.f.backends[0].srv.DoBatch(reqs) {
		if res.Err != nil {
			return res.Err
		}
		if !(math.Abs(res.Resp.Prediction-want[i]) <= tol) {
			return fmt.Errorf("served %v, published model predicts %v", res.Resp.Prediction, want[i])
		}
	}
	return nil
}

// finish returns the final model's mae and holds the run to the alarm
// floor: the labelled fault executions must have raised alarms.
func (s *retrainSession) finish() (float64, error) {
	mae, err := s.finalMAE()
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(logw, "retrain_cycle: labelled fault executions raised alarms in %d of %d scorings; final mae %.4f\n", s.alarmed, s.scorings, mae)
	if float64(s.alarmed) < alarmFloor*float64(s.scorings) {
		return mae, fmt.Errorf("labelled fault executions raised alarms in %d of %d scorings; the floor is %.0f%%",
			s.alarmed, s.scorings, alarmFloor*100)
	}
	return mae, nil
}

// finalMAE scores the held-out executions with the model as the run left
// it, through the fused path, and checks that path against the tape.
func (s *retrainSession) finalMAE() (mae float64, err error) {
	tr := s.tr
	sum, n := 0.0, 0
	for _, series := range s.heldOut {
		exs := dataset.WindowExamples(series, windowLen)
		scaled := scaledBatch(tr, exs)
		fused := tr.YScale.Unscale(tr.Model.Predict(scaled))
		tape := tr.YScale.Unscale(tr.Model.PredictTape(scaled))
		for i, ex := range exs {
			if !(math.Abs(fused[i]-tape[i]) <= 1e-9*tr.YScale.Sigma) {
				return 0, fmt.Errorf("fused path predicts %v, tape %v", fused[i], tape[i])
			}
			sum += math.Abs(fused[i] - ex.Y)
			n++
		}
	}
	return sum / float64(n), nil
}
