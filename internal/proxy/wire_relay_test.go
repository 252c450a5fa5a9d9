package proxy

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"reflect"
	"runtime"
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
		results := make([]serve.BatchResult, len(reqs))
		for i, r := range reqs {
			if fw.status != 0 {
				results[i] = serve.BatchResult{Code: fw.status, Err: errors.New(http.StatusText(fw.status))}
				continue
			}
			results[i] = serve.BatchResult{Code: 200, Resp: &serve.Response{
				Prediction: r.CF[0], Model: "fake", ModelVersion: 1, BatchSize: len(reqs),
				Record: serve.StageRecord{
					Enqueue: picked, Pickup: picked, ForwardEnd: time.Now(),
					BatchID: 1, BatchSize: len(reqs), Seed: rand.Uint64(),
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
		for k, b := range p.Backends() {
			if builds[k] == "" && p.Home(envKey(build)) == b {
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
		tr, ok := p.Traces().Get(reqs[g].RequestID)
		if !ok {
			t.Fatalf("group %d: no trace stored under %s", g, reqs[g].RequestID)
		}
		by := spansByName(tr)
		root, att := by["proxy.request"], by["proxy.attempt"]
		if root.Attrs["batch_size"] != "4" || att.ParentID != root.SpanID || att.Attrs["backend"] != p.Backends()[g].name {
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
	if p.Backends()[1].Alive() || !p.Backends()[0].Alive() {
		t.Fatalf("liveness after the kill: backend0 %v backend1 %v, want true false", p.Backends()[0].Alive(), p.Backends()[1].Alive())
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
	tr, ok := p.Traces().Get("0123456789abcdef")
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
// proxy as bytes and become a tree only for a trace the store keeps: a
// reply's tree costs at least its slice and the attribute maps of two of
// its three spans, so a kept frame of 32 replies allocates at least a
// span's worth more per span than a dropped one, which builds none of them.
func TestWireDroppedTraceMaterialisesNoSpans(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; gate runs in the non-race pass")
	}
	const windows, frames = 32, 20
	perFrame := func(trace obs.TraceStoreConfig) (float64, *Proxy) {
		p, c := newWireProxy(t, trace, newFakeWire(t, 0))
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
	dropped, p := perFrame(obs.TraceStoreConfig{SampleRate: -1, SlowMS: -1})
	if n := p.Traces().Len(); n != 0 {
		t.Fatalf("sampling off, yet %d traces stored", n)
	}
	kept, p := perFrame(keepAllTraces())
	if n := p.Traces().Len(); n != 1 { // one trace id, stored over and over
		t.Fatalf("sampling at 1, yet %d traces stored", n)
	}
	if kept-dropped < windows*stageSpans {
		t.Fatalf("a kept frame allocates %.0f, a dropped one %.0f: the %d spans were materialised either way",
			kept, dropped, windows*stageSpans)
	}
}

// TestWireStickyIDsDoNotPinFrames: a reply's request id sub-slices the
// decoded reply frame, and the sticky map keeps ids long after the frame.
// It must keep clones: once the map is full, relaying more frames may not
// grow the live heap by the frames relayed.
func TestWireStickyIDsDoNotPinFrames(t *testing.T) {
	const windows, frames = 32, 600
	p, c := newWireProxy(t, obs.TraceStoreConfig{SampleRate: -1, SlowMS: -1}, newFakeWire(t, 0))
	for i := 0; i < p.cfg.PendingCap; i++ { // fill the map to its bound
		p.sticky.Put(obs.NewRequestID(), p.Backends()[0])
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
