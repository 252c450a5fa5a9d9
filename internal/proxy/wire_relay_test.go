package proxy

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"env2vec/internal/obs"
	"env2vec/internal/serve"
	"env2vec/internal/wire"
)

// fakeWire is a wire backend with canned behaviour: it answers every batch,
// after delay, with 200s that echo CF[0] as the prediction and carry a
// stage record, so each reply has a backend's stageSpans spans, the root
// parented onto the caller's attempt span — or, when status is set, with
// that status and its text on every item. kill, when set, makes it die on
// its next batch instead: the frame is read, then the listener and the
// connection close without an answer.
type fakeWire struct {
	addr   string
	ln     net.Listener
	delay  time.Duration
	status int
	// clock, when set, is the only time the backend reads, and a reply's
	// span ids derive from its index in the frame: every frame answers with
	// the same spans.
	clock time.Time

	mu   sync.Mutex
	kill bool
}

// stageSpans is how many spans a served reply carries: serve.request,
// serve.queue_wait, serve.forward.
const stageSpans = 3

func newFakeWire(t *testing.T, delay time.Duration) *fakeWire {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fw := &fakeWire{addr: ln.Addr().String(), ln: ln, delay: delay}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go fw.serve(conn)
		}
	}()
	return fw
}

func (fw *fakeWire) serve(conn net.Conn) {
	defer conn.Close()
	br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
	send := func(typ byte, payload []byte) bool {
		return wire.WriteFrame(bw, typ, payload) == nil && bw.Flush() == nil
	}
	if f, err := wire.ReadFrame(br, 0, nil); err != nil || f.Type != wire.FrameHello ||
		!send(wire.FrameHelloAck, wire.AppendHello(nil, wire.Hello{Version: wire.ProtocolVersion, Features: wire.FeatureBatch})) {
		return
	}
	for {
		f, err := wire.ReadFrame(br, 0, nil)
		if err != nil || f.Type != wire.FramePredictBatch {
			return
		}
		fw.mu.Lock()
		kill := fw.kill
		fw.mu.Unlock()
		if kill {
			fw.ln.Close()
			return
		}
		reqs, err := wire.DecodePredictBatch(f.Payload)
		if err != nil {
			return
		}
		picked := time.Now()
		time.Sleep(fw.delay)
		done := time.Now()
		if !fw.clock.IsZero() {
			picked, done = fw.clock, fw.clock.Add(500*time.Microsecond)
		}
		results := make([]serve.BatchResult, len(reqs))
		for i, r := range reqs {
			if fw.status != 0 {
				results[i] = serve.BatchResult{Code: fw.status, Err: errors.New(http.StatusText(fw.status))}
				continue
			}
			seed := rand.Uint64()
			if !fw.clock.IsZero() {
				seed = 0x5eed000000000000 + 4*uint64(i)
			}
			results[i] = serve.BatchResult{Code: 200, Resp: &serve.Response{
				Prediction: r.CF[0], Model: "fake", ModelVersion: 1, BatchSize: len(reqs),
				Record: serve.StageRecord{
					Enqueue: picked, Pickup: picked, ForwardEnd: done,
					BatchID: 1, BatchSize: len(reqs), Seed: seed,
				},
			}}
		}
		if !send(wire.FramePredictReply, wire.AppendResults(nil, reqs, results)) {
			return
		}
	}
}

// newWireProxy fronts fake wire backends (there is no HTTP side: the proxy
// is never Started, so nothing probes the made-up URLs) and returns a
// client dialled to its wire listener.
func newWireProxy(t *testing.T, trace obs.TraceStoreConfig, backends ...*fakeWire) (*Proxy, *wire.Client) {
	t.Helper()
	cfg := Config{Trace: trace, RetryBackoff: time.Millisecond, FailAfter: 1, Timeout: 5 * time.Second}
	for i, fw := range backends {
		cfg.Backends = append(cfg.Backends, fmt.Sprintf("http://fake-%d.test", i))
		cfg.WireBackends = append(cfg.WireBackends, fw.addr)
	}
	p := New(cfg)
	t.Cleanup(p.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = p.ServeWire(ln) }()
	c, err := wire.Dial(ln.Addr().String(), wire.ClientConfig{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return p, c
}

// buildsHomedOn returns one build whose environment homes on each backend.
func buildsHomedOn(t *testing.T, p *Proxy) [2]string {
	t.Helper()
	var builds [2]string
	for i := 0; i < 256 && (builds[0] == "" || builds[1] == ""); i++ {
		build := fmt.Sprintf("B%d", i)
		for k, b := range p.backends {
			if builds[k] == "" && p.home(envKey(build)) == b {
				builds[k] = build
			}
		}
	}
	if builds[0] == "" || builds[1] == "" {
		t.Fatal("no build found for one of the two homes")
	}
	return builds
}

// alternating builds a frame whose requests alternate between two builds;
// CF[0] numbers them, and the fake backends echo it as the prediction.
func alternating(builds [2]string, n int) []*serve.Request {
	reqs := make([]*serve.Request, n)
	for i := range reqs {
		reqs[i] = &serve.Request{
			CF: []float64{float64(i)}, Window: []float64{50},
			Testbed: "tb1", SUT: "fw", Testcase: "load", Build: builds[i%2],
			RequestID: fmt.Sprintf("%016x", i),
		}
	}
	return reqs
}

// TestWireFanOutConcurrent: a frame's environment groups are forwarded at
// the same time, not one after another, and stitched back in request order,
// each group leaving its own intact proxy.request trace.
func TestWireFanOutConcurrent(t *testing.T) {
	const delay = 30 * time.Millisecond
	p, c := newWireProxy(t, keepAllTraces(), newFakeWire(t, delay), newFakeWire(t, delay))
	builds := buildsHomedOn(t, p)
	if _, err := c.Predict(alternating(builds, 2)); err != nil { // dial both pools outside the timing
		t.Fatal(err)
	}

	reqs := alternating(builds, 8)
	start := time.Now()
	replies, err := c.Predict(reqs)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if wall >= 50*time.Millisecond {
		t.Fatalf("two groups on two %v backends took %v: forwarded one after another", delay, wall)
	}
	for i, rep := range replies {
		if rep.Status != http.StatusOK || rep.Prediction != float64(i) || rep.RequestID != reqs[i].RequestID {
			t.Fatalf("reply %d out of order or failed: %+v (request id %s)", i, rep, reqs[i].RequestID)
		}
	}
	// One trace per group, keyed by the group's first request.
	for g := 0; g < 2; g++ {
		tr, ok := p.traces.Get(reqs[g].RequestID)
		if !ok {
			t.Fatalf("group %d: no trace stored under %s", g, reqs[g].RequestID)
		}
		by := spansByName(tr)
		root, att := by["proxy.request"], by["proxy.attempt"]
		if root.Attrs["batch_size"] != "4" || att.ParentID != root.SpanID || att.Attrs["backend"] != p.backends[g].name {
			t.Fatalf("group %d: proxy tree broken: root=%+v attempt=%+v", g, root, att)
		}
		backend := 0
		for _, sp := range tr.Spans {
			if sp.Name == "serve.request" {
				backend++
				if sp.ParentID != att.SpanID {
					t.Fatalf("group %d: backend span parents onto %q, want attempt %q", g, sp.ParentID, att.SpanID)
				}
			}
		}
		if backend != 4 {
			t.Fatalf("group %d: %d backend spans stitched, want 4", g, backend)
		}
	}
}

// TestWireFanOutSurvivesBackendDeath: one group's backend dies with the
// frame in hand; the other group's answers are untouched, and the orphaned
// group fails over to the survivor.
func TestWireFanOutSurvivesBackendDeath(t *testing.T) {
	healthy, dying := newFakeWire(t, 0), newFakeWire(t, 0)
	p, c := newWireProxy(t, keepAllTraces(), healthy, dying)
	builds := buildsHomedOn(t, p)
	if _, err := c.Predict(alternating(builds, 2)); err != nil {
		t.Fatal(err)
	}
	dying.mu.Lock()
	dying.kill = true
	dying.mu.Unlock()

	replies, err := c.Predict(alternating(builds, 8))
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range replies {
		if rep.Status != http.StatusOK || rep.Prediction != float64(i) {
			t.Fatalf("reply %d (group %d): %+v", i, i%2, rep)
		}
	}
	if p.backends[1].Alive() || !p.backends[0].Alive() {
		t.Fatalf("liveness after the kill: backend0 %v backend1 %v, want true false", p.backends[0].Alive(), p.backends[1].Alive())
	}
}

// TestProxyWireTraceStitchesBackendSpans is the wire twin of
// TestE2EStitchedTraceAcrossProcesses: a kept wire trace holds the proxy
// root, the attempt, and every backend serve.request with its stage spans,
// every parent edge intact across the process boundary.
func TestProxyWireTraceStitchesBackendSpans(t *testing.T) {
	be := newE2EBackend(t, 3)
	addr, _ := attachWire(t, be)
	p := New(Config{Backends: []string{be.srv.URL}, WireBackends: []string{addr}, Trace: keepAllTraces()})
	defer p.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = p.ServeWire(ln) }()
	c, err := wire.Dial(ln.Addr().String(), wire.ClientConfig{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	reqs := []*serve.Request{wireRequest("0123456789abcdef"), wireRequest("fedcba9876543210")}
	replies, err := c.Predict(reqs)
	if err != nil || replies[0].Status != http.StatusOK || replies[1].Status != http.StatusOK {
		t.Fatalf("predict: %v %+v", err, replies)
	}
	tr, ok := p.traces.Get("0123456789abcdef")
	if !ok {
		t.Fatal("no trace stored for the frame")
	}
	root, att := spansByName(tr)["proxy.request"], spansByName(tr)["proxy.attempt"]
	if root.SpanID == "" || root.ParentID != "" || root.Attrs["path"] != "wire:batch" || att.ParentID != root.SpanID {
		t.Fatalf("proxy tree broken: root=%+v attempt=%+v", root, att)
	}
	children := map[string][]string{} // parent span id → child names
	var serveRoots []obs.Span
	for _, sp := range tr.Spans {
		children[sp.ParentID] = append(children[sp.ParentID], sp.Name)
		if sp.Name == "serve.request" {
			serveRoots = append(serveRoots, sp)
		}
	}
	if len(serveRoots) != 2 {
		t.Fatalf("%d serve.request spans stitched, want one per window: %+v", len(serveRoots), tr.Spans)
	}
	for i, sr := range serveRoots {
		if sr.ParentID != att.SpanID || sr.TraceID != reqs[i].RequestID {
			t.Fatalf("serve.request %d: parent %q trace %q, want attempt %q trace %q", i, sr.ParentID, sr.TraceID, att.SpanID, reqs[i].RequestID)
		}
		stages := children[sr.SpanID]
		sort.Strings(stages)
		if fmt.Sprint(stages) != "[serve.forward serve.queue_wait]" {
			t.Fatalf("serve.request %d has stages %v, want forward and queue_wait", i, stages)
		}
	}
	// A wire request leaves a trace on the backend too, rendered from the
	// same record as the section the proxy stitched: the same spans, id for id.
	for _, req := range reqs {
		var stitched []obs.Span
		for _, sp := range tr.Spans {
			if strings.HasPrefix(sp.Name, "serve.") && sp.TraceID == req.RequestID {
				stitched = append(stitched, sp)
			}
		}
		resp, err := http.Get(be.srv.URL + "/traces/" + req.RequestID)
		if err != nil {
			t.Fatal(err)
		}
		var own obs.Trace
		err = json.NewDecoder(resp.Body).Decode(&own)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("backend GET /traces/%s: status %d, err %v", req.RequestID, resp.StatusCode, err)
		}
		if own.Outcome != obs.OutcomeServed || len(own.Spans) != stageSpans || !reflect.DeepEqual(own.Spans, stitched) {
			t.Fatalf("backend's own trace of %s is\n %+v\nthe proxy stitched\n %+v", req.RequestID, own, stitched)
		}
	}
}

func wireRequest(id string) *serve.Request {
	return &serve.Request{
		CF: []float64{1, 2, 3}, Window: []float64{50, 51},
		Testbed: "tb1", SUT: "fw", Testcase: "load", Build: "B1", RequestID: id,
	}
}

// TestWireDroppedTraceMaterialisesNoSpans: backend spans travel through the
// proxy as bytes and are never a tree there. A dropped trace renders
// nothing; a kept one is its proxy spans plus the replies' span sections
// appended as they arrived, one stored string, so keeping a frame's trace
// costs a handful of objects that do not grow with the frame (before the
// trace store kept bytes, a kept 32-window frame cost at least one object
// per backend span, 96 of them). What is stored is what was served before:
// GET /traces/{id} for the kept frame is the golden written when the proxy
// still built the tree, the proxy's own span ids and clock aside.
func TestWireDroppedTraceMaterialisesNoSpans(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; gate runs in the non-race pass")
	}
	const frames = 20
	clock := time.UnixMicro(1700000000000000)
	perFrame := func(windows int, trace obs.TraceStoreConfig) (float64, *Proxy) {
		fw := newFakeWire(t, 0)
		fw.clock = clock
		p, c := newWireProxy(t, trace, fw)
		reqs := make([]*serve.Request, windows)
		for i := range reqs {
			reqs[i] = wireRequest(fmt.Sprintf("%016x", i))
		}
		run := func() {
			if replies, err := c.Predict(reqs); err != nil || replies[windows-1].Status != http.StatusOK {
				t.Fatalf("predict: %v", err)
			}
		}
		run()
		// The client and the fake backend allocate in the same process, the
		// same on both sides of the comparison.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < frames; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / frames, p
	}
	var costs []float64
	for _, windows := range []int{8, 32, 64} {
		dropped, p := perFrame(windows, obs.TraceStoreConfig{SampleRate: -1, SlowMS: -1})
		if n := p.traces.Len(); n != 0 {
			t.Fatalf("sampling off, yet %d traces stored", n)
		}
		kept, p := perFrame(windows, keepAllTraces())
		if n := p.traces.Len(); n != 1 { // one trace id, stored over and over
			t.Fatalf("sampling at 1, yet %d traces stored", n)
		}
		t.Logf("%d windows: a kept frame allocates %.1f, a dropped one %.1f", windows, kept, dropped)
		if kept-dropped > 24 {
			t.Errorf("%d windows: a kept frame allocates %.1f, a dropped one %.1f: keeping the trace costs more than 24 objects",
				windows, kept, dropped)
		}
		costs = append(costs, kept-dropped)
		if windows == 32 {
			golden, err := os.ReadFile(filepath.Join("testdata", "kept_frame_golden.json"))
			if err != nil {
				t.Fatal(err)
			}
			if got := keptFrameJSON(t, p, "0000000000000000"); string(got) != string(golden) {
				t.Errorf("GET /traces/{id} for the kept frame serves\n%s\nthe golden is\n%s", got, golden)
			}
			tr, _ := p.traces.Get("0000000000000000")
			for _, l := range p.traces.List(0, "", 0) {
				if l.TraceID == tr.TraceID && l.Spans != len(tr.Spans) {
					t.Errorf("GET /traces counts %d spans in the kept frame's trace of %d", l.Spans, len(tr.Spans))
				}
			}
		}
	}
	if lo, hi := slices.Min(costs), slices.Max(costs); hi-lo > 2 {
		t.Errorf("keeping a frame's trace costs %v objects at 8, 32 and 64 windows: it grows with the frame", costs)
	}
}

// keptFrameJSON is GET /traces/{id} on the proxy, with what the proxy draws
// afresh for every frame — its own span ids and its clock — replaced by
// placeholders; the rest is the stitched tree as served.
func keptFrameJSON(t *testing.T, p *Proxy, id string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	p.traces.ServeHTTP(rec, httptest.NewRequest("GET", "/traces/"+id, nil))
	var tr obs.Trace
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("GET /traces/%s: status %d, err %v", id, rec.Code, err)
	}
	names := map[string]string{}
	for i := range tr.Spans {
		if sp := &tr.Spans[i]; strings.HasPrefix(sp.Name, "proxy.") {
			names[sp.SpanID] = fmt.Sprintf("proxy-span-%d", len(names))
			sp.StartUnixUS, sp.DurationMS = 0, 0
		}
	}
	for i := range tr.Spans {
		sp := &tr.Spans[i]
		if n, ok := names[sp.SpanID]; ok {
			sp.SpanID = n
		}
		if n, ok := names[sp.ParentID]; ok {
			sp.ParentID = n
		}
	}
	tr.StartUnixUS, tr.DurationMS = 0, 0
	out, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// cannedWire is a wire backend that allocates nothing per frame: it answers
// a batch of n requests with a reply payload rendered once for n — served
// replies with a backend's three-span section — so that a process's
// allocation count is the proxy's and the client's alone.
func cannedWire(t *testing.T, counts ...int) string {
	t.Helper()
	canned := map[uint64][]byte{}
	at := time.UnixMicro(1700000000000000)
	for _, n := range counts {
		reqs := make([]*serve.Request, n)
		results := make([]serve.BatchResult, n)
		for i := range reqs {
			reqs[i] = wireRequest(fmt.Sprintf("%016x", i))
			results[i] = serve.BatchResult{Code: http.StatusOK, Resp: &serve.Response{
				Prediction: 50, Model: "fake", ModelVersion: 1, BatchSize: n,
				Record: serve.StageRecord{Enqueue: at, Pickup: at, ForwardEnd: at.Add(time.Millisecond), BatchID: 1, BatchSize: n, Seed: uint64(4 * i)},
			}}
		}
		canned[uint64(n)] = wire.AppendResults(nil, reqs, results)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
				var buf []byte
				for {
					f, err := wire.ReadFrame(br, 0, &buf)
					if err != nil {
						return
					}
					answer, typ := wire.AppendHello(nil, wire.Hello{Version: wire.ProtocolVersion, Features: wire.FeatureBatch}), byte(wire.FrameHelloAck)
					if f.Type == wire.FramePredictBatch {
						n, _ := binary.Uvarint(f.Payload)
						answer, typ = canned[n], wire.FramePredictReply
					}
					if wire.WriteFrame(bw, typ, answer) != nil || bw.Flush() != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestProxyRelayAllocs gates the proxy hop: with sampling off, a frame
// through the proxy to a backend costs a fixed handful of objects, whatever
// it carries. The client sends a prepared payload and the backend answers
// with a canned one, neither allocating, so the count is the proxy's: the
// attempt's span id, its candidate list, the trace id, the sticky map's id
// chunks. Before the byte relay, when the proxy decoded every frame into
// per-frame slabs and re-encoded it both ways and every frame read
// allocated its header, the same procedure counted 20.1, 20.3 and 20.4
// objects at 8, 32 and 64 windows.
func TestProxyRelayAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; gate runs in the non-race pass")
	}
	const frames = 200
	counts := []int{8, 32, 64}
	p := New(Config{
		Backends: []string{"http://canned.test"}, WireBackends: []string{cannedWire(t, counts...)},
		Trace: obs.TraceStoreConfig{SampleRate: -1, SlowMS: -1}, Timeout: 5 * time.Second,
	})
	t.Cleanup(p.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = p.ServeWire(ln) }()
	c, err := wire.Dial(ln.Addr().String(), wire.ClientConfig{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var costs []float64
	for _, windows := range counts {
		reqs := make([]*serve.Request, windows)
		for i := range reqs {
			reqs[i] = wireRequest("") // the proxy mints the ids
		}
		payload := wire.AppendPredictBatch(nil, reqs)
		run := func() {
			rep, err := c.PredictPayload(payload)
			if n, _ := binary.Uvarint(rep); err != nil || int(n) != windows {
				t.Fatalf("relay of %d windows: %d replies, %v", windows, n, err)
			}
		}
		for i := 0; i < 20; i++ { // buffers and pools reach their size
			run()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < frames; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		cost := float64(after.Mallocs-before.Mallocs) / frames
		t.Logf("a frame of %d windows: %.2f objects through the proxy", windows, cost)
		if cost > relayAllocBudget {
			t.Errorf("a frame of %d windows costs %.2f objects through the proxy, budget %d", windows, cost, relayAllocBudget)
		}
		costs = append(costs, cost)
	}
	if lo, hi := slices.Min(costs), slices.Max(costs); hi-lo > 1 {
		t.Errorf("a frame through the proxy costs %v objects at 8, 32 and 64 windows: something is allocated per window", costs)
	}
}

// relayAllocBudget is TestProxyRelayAllocs' bound on a frame's objects,
// pinned from the build (4.1 to 4.3).
const relayAllocBudget = 5

// TestWireStickyIDsDoNotPinFrames: a reply's request id sub-slices the
// decoded reply frame, and the sticky map keeps ids long after the frame.
// It must keep clones: once the map is full, relaying more frames may not
// grow the live heap by the frames relayed.
func TestWireStickyIDsDoNotPinFrames(t *testing.T) {
	const windows, frames = 32, 600
	p, c := newWireProxy(t, obs.TraceStoreConfig{SampleRate: -1, SlowMS: -1}, newFakeWire(t, 0))
	for i := 0; i < p.cfg.PendingCap; i++ { // fill the map to its bound
		p.sticky.Put(obs.NewRequestID(), p.backends[0])
	}
	reqs := make([]*serve.Request, windows)
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	relay := func(n int) {
		for f := 0; f < n; f++ {
			for i := range reqs {
				reqs[i] = wireRequest("") // the proxy mints the ids
			}
			if _, err := c.Predict(reqs); err != nil {
				t.Fatal(err)
			}
		}
	}
	relay(8) // connection buffers reach their size
	before := heap()
	relay(frames) // windows × frames > PendingCap: every sticky id is replaced
	if windows*frames <= p.cfg.PendingCap {
		t.Fatalf("test relays %d ids, sticky map holds %d", windows*frames, p.cfg.PendingCap)
	}
	if grew := int64(heap()) - int64(before); grew > 200<<10 {
		t.Fatalf("live heap grew %d KB over %d relayed frames; the sticky map is pinning reply frames", grew>>10, frames)
	}
}
