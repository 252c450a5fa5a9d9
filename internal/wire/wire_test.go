package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"env2vec/internal/core"
	"env2vec/internal/dataset"
	"env2vec/internal/envmeta"
	"env2vec/internal/obs"
	"env2vec/internal/quality"
	"env2vec/internal/serve"
)

var testEnv = envmeta.Environment{Testbed: "tb1", SUT: "fw", Testcase: "load", Build: "B1"}

// newTestServe stands up a real serve.Server with a small deterministic
// bundle — the wire server dispatches into the same micro-batcher the
// JSON path uses.
func newTestServe(t *testing.T, seed int64) *serve.Server {
	t.Helper()
	s := serve.New(serve.Config{MaxBatch: 8, QueueDepth: 256, Workers: 2})
	t.Cleanup(s.Close)
	s.SetBundle(testBundle(seed))
	return s
}

func testBundle(seed int64) *serve.Bundle {
	cfg := core.Config{In: 3, Hidden: 8, GRUHidden: 4, EmbedDim: 3, Window: 2, Seed: seed}
	schema := envmeta.NewSchema()
	schema.Observe(testEnv)
	schema.Freeze()
	return &serve.Bundle{
		Name: "test", Version: 1,
		Model:  core.New(cfg, schema),
		Schema: schema,
		YScale: dataset.YScaler{Mu: 50, Sigma: 10},
	}
}

// newTestWire wires a wire.Server to a TCP listener; returns its address.
func newTestWire(t *testing.T, dispatch *serve.Server, cfg ServerConfig) string {
	t.Helper()
	ws := NewServer(dispatch, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = ws.Serve(ln) }()
	t.Cleanup(ws.Close)
	return ln.Addr().String()
}

func testRequest(rng *rand.Rand, id string) *serve.Request {
	req := &serve.Request{
		CF:      []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()},
		Window:  []float64{50 + rng.NormFloat64(), 50 + rng.NormFloat64()},
		Testbed: testEnv.Testbed, SUT: testEnv.SUT, Testcase: testEnv.Testcase, Build: testEnv.Build,
		RequestID: id,
	}
	return req
}

// readFrames reads raw frame by frame, as a connection does.
func readFrames(raw []byte, maxPayload int) ([]Frame, error) {
	br := bufio.NewReader(bytes.NewReader(raw))
	var frames []Frame
	for {
		f, err := ReadFrame(br, maxPayload, nil)
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = nil
			}
			return frames, err
		}
		frames = append(frames, f)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 4096)}
	for _, p := range payloads {
		frames, err := readFrames(AppendFrame(nil, FramePredictBatch, p), 0)
		if err != nil || len(frames) != 1 {
			t.Fatalf("ReadFrame(%d-byte payload): %d frames, %v", len(p), len(frames), err)
		}
		if f := frames[0]; f.Type != FramePredictBatch || !bytes.Equal(f.Payload, p) {
			t.Fatalf("round trip mismatch: type=%#x payload=%d", f.Type, len(f.Payload))
		}
	}
	// Two frames back to back: the reader stops on the boundary between them.
	frames, err := readFrames(AppendFrame(AppendFrame(nil, FrameHello, []byte("a")), FrameError, []byte("b")), 0)
	if err != nil || len(frames) != 2 || frames[0].Type != FrameHello || frames[1].Type != FrameError || string(frames[1].Payload) != "b" {
		t.Fatalf("two frames read as %+v, %v", frames, err)
	}
}

func TestFrameDecodeErrors(t *testing.T) {
	good := AppendFrame(nil, FramePredictBatch, []byte("payload"))

	if _, err := readFrames(good[:5], 0); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short header: %v", err)
	}
	if _, err := readFrames(good[:len(good)-1], 0); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short payload: %v", err)
	}
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xFF
	if _, err := readFrames(bad, 0); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}
	bad = append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0x01 // flip one payload bit
	if _, err := readFrames(bad, 0); !errors.Is(err, ErrBadCRC) {
		t.Fatalf("flipped payload bit: %v", err)
	}
	if _, err := readFrames(good, 3); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize: %v", err)
	}
}

func TestPredictBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	actual := 51.5
	reqs := []*serve.Request{
		testRequest(rng, "0123456789abcdef"),
		{
			CF: []float64{1}, Window: []float64{2, 3},
			Testbed: "tb2", SUT: "s", Testcase: "tc", Build: "b",
			ChainID: "chain-1", Actual: &actual,
			RequestID:   "fedcba9876543210",
			TraceParent: obs.FormatTraceParent("fedcba9876543210", "00000000000000aa"),
		},
	}
	got, err := DecodePredictBatch(AppendPredictBatch(nil, reqs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, reqs) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got[1], reqs[1])
	}

	// Trailing garbage is corruption, not tolerated slack.
	raw := append(AppendPredictBatch(nil, reqs), 0x00)
	if _, err := DecodePredictBatch(raw); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing garbage: %v", err)
	}
	if _, err := DecodePredictBatch(nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty payload: %v", err)
	}
}

func TestPredictRepliesRoundTrip(t *testing.T) {
	anom, dev := true, 1.25
	replies := []Reply{
		{
			RequestID: "0123456789abcdef", Status: 200,
			Prediction: 49.75, Model: "env2vec", ModelVersion: 7, BatchSize: 8,
			Anomalous: &anom, Deviation: &dev,
		},
		{RequestID: "ffff", Status: 429, Error: "serve: queue full"},
	}
	spans := []obs.Span{
		{TraceID: "0123456789abcdef", SpanID: "aa", Name: "serve.request", StartUnixUS: 123456, DurationMS: 1.5,
			Attrs: map[string]string{"outcome": "served"}},
		{TraceID: "0123456789abcdef", SpanID: "bb", ParentID: "aa", Name: "serve.forward", StartUnixUS: 123460, DurationMS: 0.5},
	}
	replies[0].setSpans(spans)
	got, err := DecodePredictReplies(AppendPredictReplies(nil, replies))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, replies) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, replies)
	}
	if tree := got[0].Spans(); !reflect.DeepEqual(tree, spans) {
		t.Fatalf("materialised spans:\n got %+v\nwant %+v", tree, spans)
	}
	if got[1].Spans() != nil {
		t.Fatalf("error reply materialised spans: %+v", got[1].Spans())
	}
}

func TestStreamPayloadRoundTrips(t *testing.T) {
	sub := Subscribe{Env: testEnv, ChainID: "c1"}
	if got, err := DecodeSubscribe(AppendSubscribe(nil, sub)); err != nil || got != sub {
		t.Fatalf("subscribe: %+v %v", got, err)
	}
	ack := SubscribeAck{Model: "env2vec", Version: 3, In: 6, Window: 20}
	if got, err := DecodeSubscribeAck(AppendSubscribeAck(nil, ack)); err != nil || got != ack {
		t.Fatalf("ack: %+v %v", got, err)
	}
	a := 50.5
	w := Window{Seq: 42, RequestID: "r1", CF: []float64{1, 2}, Window: []float64{3, 4}, Actual: &a}
	got, err := DecodeWindow(AppendWindow(nil, w))
	if err != nil || !reflect.DeepEqual(got, w) {
		t.Fatalf("window: %+v %v", got, err)
	}
	anom := false
	dev := 0.25
	p := Prediction{Seq: 42, Status: 200, Value: 51.25, ModelVersion: 3, Anomalous: &anom, Deviation: &dev}
	gp, err := DecodePrediction(AppendPrediction(nil, p))
	if err != nil || !reflect.DeepEqual(gp, p) {
		t.Fatalf("prediction: %+v %v", gp, err)
	}
	pe := Prediction{Seq: 43, Status: 503, Error: "serve: no model loaded"}
	if gp, err = DecodePrediction(AppendPrediction(nil, pe)); err != nil || gp != pe {
		t.Fatalf("error prediction: %+v %v", gp, err)
	}
	ef := ErrorFrame{Code: 400, Seq: 9, Message: "nope"}
	if got, err := DecodeError(AppendError(nil, ef)); err != nil || got != ef {
		t.Fatalf("error frame: %+v %v", got, err)
	}
}

// TestClientServerBatch drives batched predicts through a live wire server
// and checks the answers bit-match the JSON path's Do.
func TestClientServerBatch(t *testing.T) {
	s := newTestServe(t, 3)
	addr := newTestWire(t, s, ServerConfig{})
	c, err := Dial(addr, ClientConfig{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.features&FeatureBatch == 0 || c.features&FeatureSubscribe == 0 {
		t.Fatalf("server features = %b, want batch|subscribe", c.features)
	}

	rng := rand.New(rand.NewSource(7))
	reqs := make([]*serve.Request, 8)
	want := make([]float64, len(reqs))
	for i := range reqs {
		reqs[i] = testRequest(rng, "")
		// Reference answer through the same engine; a fresh copy so request
		// ids do not collide.
		cp := *reqs[i]
		resp, _, err := s.Do(&cp)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resp.Prediction
	}
	replies, err := c.Predict(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range replies {
		if rep.Status != 200 {
			t.Fatalf("reply %d: status %d (%s)", i, rep.Status, rep.Error)
		}
		if math.Abs(rep.Prediction-want[i]) > 1e-12 {
			t.Fatalf("reply %d: prediction %v, want %v", i, rep.Prediction, want[i])
		}
		if rep.RequestID == "" {
			t.Fatalf("reply %d: empty request id", i)
		}
		if spans := rep.Spans(); len(spans) == 0 || spans[0].Name != "serve.request" || spans[0].TraceID != rep.RequestID {
			t.Fatalf("reply %d: missing stage spans: %+v", i, spans)
		}
	}

	// A malformed request inside a batch fails alone.
	bad := testRequest(rng, "")
	bad.Window = []float64{1} // wrong arity
	mixed := []*serve.Request{testRequest(rng, ""), bad}
	replies, err = c.Predict(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if replies[0].Status != 200 {
		t.Fatalf("good half of batch got %d (%s)", replies[0].Status, replies[0].Error)
	}
	if replies[1].Status != http.StatusBadRequest || replies[1].Error == "" {
		t.Fatalf("bad half of batch got %d (%s), want 400", replies[1].Status, replies[1].Error)
	}
}

// TestClientServerStream covers the subscribe lifecycle: ack carries the
// model shape, pipelined windows answer with correlated seqs, and inline
// actuals flow through. The windows go out back to back, more of them than
// a connection may have in the batcher at once (streamInflight), so the
// bound is reached and released.
func TestClientServerStream(t *testing.T) {
	s := newTestServe(t, 5)
	addr := newTestWire(t, s, ServerConfig{})
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Subscribe(testEnv, "")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ack := st.Ack()
	if ack.Model != "test" || ack.Version != 1 || ack.In != 3 || ack.Window != 2 {
		t.Fatalf("ack = %+v", ack)
	}

	rng := rand.New(rand.NewSource(9))
	const n = 3 * streamInflight
	windows := make([]Window, n)
	want := make(map[uint64]float64, n)
	for i := range windows {
		cf := make([]float64, ack.In)
		win := make([]float64, ack.Window)
		for j := range cf {
			cf[j] = rng.NormFloat64()
		}
		for j := range win {
			win[j] = 50 + rng.NormFloat64()
		}
		actual := 50 + rng.NormFloat64()
		req := &serve.Request{
			CF: append([]float64(nil), cf...), Window: append([]float64(nil), win...),
			Testbed: testEnv.Testbed, SUT: testEnv.SUT, Testcase: testEnv.Testcase, Build: testEnv.Build,
			Actual: &actual,
		}
		resp, _, err := s.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		windows[i] = Window{Seq: st.NextSeq(), CF: cf, Window: win, Actual: &actual}
		want[windows[i].Seq] = resp.Prediction
	}
	var recvWG sync.WaitGroup
	recvWG.Add(1)
	got := make(map[uint64]Prediction, n)
	go func() {
		defer recvWG.Done()
		for i := 0; i < n; i++ {
			p, err := st.Recv()
			if err != nil {
				t.Errorf("recv %d: %v", i, err)
				return
			}
			got[p.Seq] = p
		}
	}()
	for _, w := range windows {
		if err := st.Send(w); err != nil {
			t.Fatal(err)
		}
	}
	recvWG.Wait()
	if len(got) != n {
		t.Fatalf("received %d predictions, want %d", len(got), n)
	}
	for seq, p := range got {
		if p.Status != http.StatusOK {
			t.Fatalf("seq %d: status %d: %s", seq, p.Status, p.Error)
		}
		if math.Abs(p.Value-want[seq]) > 1e-12 {
			t.Fatalf("seq %d: %v, want %v", seq, p.Value, want[seq])
		}
	}
}

// TestProtocolViolations exercises the server's error paths: wrong
// version, window before subscribe, garbage frames.
func TestProtocolViolations(t *testing.T) {
	s := newTestServe(t, 11)
	addr := newTestWire(t, s, ServerConfig{})

	// Wrong protocol version → FrameError carrying 505.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(AppendFrame(nil, FrameHello, AppendHello(nil, Hello{Version: 99}))); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(bufio.NewReader(conn), 0, nil)
	if err != nil || f.Type != FrameError {
		t.Fatalf("version mismatch answer: %+v %v", f, err)
	}
	if ef, err := DecodeError(f.Payload); err != nil || ef.Code != http.StatusHTTPVersionNotSupported {
		t.Fatalf("version error = %+v %v", ef, err)
	}

	// Window before Subscribe → FrameError 400.
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.writeFrame(FrameWindow, AppendWindow(nil, Window{Seq: 1, CF: []float64{1}, Window: []float64{1, 2}})); err != nil {
		t.Fatal(err)
	}
	rf, err := c.readFrame()
	if err != nil || rf.Type != FrameError {
		t.Fatalf("window-before-subscribe answer: %+v %v", rf, err)
	}

	// Garbage bytes instead of a handshake: the connection just dies —
	// no panic, no hang.
	g, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.Write(bytes.Repeat([]byte{0xFF}, 256)); err != nil {
		t.Fatal(err)
	}
	_ = g.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1024)
	for {
		if _, err := g.Read(buf); err != nil {
			break // closed (possibly after an error frame) — the point is it terminates
		}
	}
}

// TestProtocolErrorsCountOnlyViolations: env2vec_wire_protocol_errors_total
// counts malformed and out-of-order frames. A model-less backend refusing a
// Subscribe with 503 is not one; it used to be counted all the same.
func TestProtocolErrorsCountOnlyViolations(t *testing.T) {
	s := serve.New(serve.Config{MaxBatch: 8, QueueDepth: 16, Workers: 1})
	t.Cleanup(s.Close)
	reg := obs.NewRegistry()
	addr := newTestWire(t, s, ServerConfig{Obs: reg})
	violations := reg.Counter("env2vec_wire_protocol_errors_total", "", nil)

	c, err := Dial(addr, ClientConfig{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var re *RemoteError
	if _, err := c.Subscribe(testEnv, ""); !errors.As(err, &re) || re.Code != http.StatusServiceUnavailable {
		t.Fatalf("subscribe to a model-less backend: %v, want a 503", err)
	}
	if n := violations.Value(); n != 0 {
		t.Fatalf("a 503 refusal counted %d protocol errors, want 0", n)
	}

	g, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.Write(bytes.Repeat([]byte{0xFF}, 256)); err != nil {
		t.Fatal(err)
	}
	_ = g.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, _ = io.Copy(io.Discard, g) // the answer, then the close: the count comes first
	if n := violations.Value(); n != 1 {
		t.Fatalf("a garbage preamble counted %d protocol errors, want 1", n)
	}
}

// TestNonFiniteWindowFailsAlone sends what only this protocol can: a frame
// of 32 raw-bits windows, one of them NaN. That item answers 400, its 31
// neighbours bit-equal to the same frame without it — in both precisions,
// since a float32 kernel that clamps would otherwise make the NaN a finite
// wrong answer.
func TestNonFiniteWindowFailsAlone(t *testing.T) {
	for _, prec := range []serve.Precision{serve.PrecisionFloat64, serve.PrecisionFloat32} {
		b := testBundle(11)
		if err := b.SetPrecision(prec); err != nil {
			t.Fatal(err)
		}
		s := serve.New(serve.Config{MaxBatch: 32, QueueDepth: 256, Workers: 1})
		t.Cleanup(s.Close)
		s.SetBundle(b)
		c, err := Dial(newTestWire(t, s, ServerConfig{}), ClientConfig{Timeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()

		const bad = 20
		frame := func(poisoned bool) []*serve.Request {
			rng := rand.New(rand.NewSource(12))
			reqs := make([]*serve.Request, 32)
			for i := range reqs {
				reqs[i] = testRequest(rng, "")
			}
			if poisoned {
				reqs[bad].Window[0] = math.NaN()
			}
			return reqs
		}
		clean, err := c.Predict(frame(false))
		if err != nil {
			t.Fatal(err)
		}
		replies, err := c.Predict(frame(true))
		if err != nil {
			t.Fatal(err)
		}
		for i, rep := range replies {
			if i == bad {
				if rep.Status != http.StatusBadRequest || rep.Error == "" {
					t.Fatalf("%s: NaN item got %d (%s), want 400", prec, rep.Status, rep.Error)
				}
				continue
			}
			if rep.Status != 200 || math.Float64bits(rep.Prediction) != math.Float64bits(clean[i].Prediction) {
				t.Fatalf("%s: neighbour %d: status %d prediction %v, %v without the NaN item",
					prec, i, rep.Status, rep.Prediction, clean[i].Prediction)
			}
		}
	}
}

// TestNonFinitePredictionIsTypedError is the regression for a finite input
// that came back NaN: a window value beyond float32's range narrows to ±Inf
// inside the frozen path, Inf·0 in the GRU makes the prediction NaN, and it
// used to leave as a 500 on JSON (NaN has no JSON encoding), as NaN bits
// under status 200 on the wire, counted served, stored as a pending
// prediction and fed to the quality monitor. On every entry point and both
// precisions a prediction that is not finite is now a typed per-item 422:
// never a NaN in a 2xx, never a 500, the neighbours of the pass served, one
// outcome counted per request, nothing pending, nothing observed.
func TestNonFinitePredictionIsTypedError(t *testing.T) {
	for _, prec := range []serve.Precision{serve.PrecisionFloat64, serve.PrecisionFloat32} {
		for _, huge := range []float64{1e39, 1e300, -1e300, 5e-324} {
			t.Run(fmt.Sprintf("%s/%g", prec, huge), func(t *testing.T) {
				b := testBundle(11)
				rng := rand.New(rand.NewSource(13))
				for _, p := range b.Model.Params() { // biases included: Inf·0 needs a non-zero neighbour
					p.Value.RandNormal(rng, 0.5)
				}
				if err := b.SetPrecision(prec); err != nil {
					t.Fatal(err)
				}
				s := serve.New(serve.Config{MaxBatch: 32, QueueDepth: 256, Workers: 1, Quality: &quality.Config{}})
				t.Cleanup(s.Close)
				s.SetBundle(b)
				web := httptest.NewServer(s)
				defer web.Close()
				c, err := Dial(newTestWire(t, s, ServerConfig{}), ClientConfig{Timeout: 5 * time.Second})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()

				requests, observed := 0, uint64(0)
				poisoned := func(id string) *serve.Request {
					req := testRequest(rng, id)
					req.Window[1] = huge
					return req
				}
				// answer checks one outcome: a finite 200, or the typed 422.
				answer := func(what string, status int, pred float64, typed bool) (served bool) {
					t.Helper()
					requests++
					switch {
					case status == http.StatusOK && !math.IsNaN(pred) && !math.IsInf(pred, 0):
						return true
					case status == http.StatusUnprocessableEntity && typed:
						return false
					}
					t.Fatalf("%s: status %d prediction %v typed=%v; want a finite 200 or a typed 422", what, status, pred, typed)
					return false
				}

				resp, code, err := s.Do(poisoned("do"))
				pred := math.NaN()
				if resp != nil {
					pred = resp.Prediction
				}
				wantServed := answer("Do", code, pred, errors.Is(err, serve.ErrNonFinite))
				if prec == serve.PrecisionFloat32 && huge == 1e300 && wantServed {
					t.Fatalf("float32 answered %v for a 1e300 window: the case that reproduced the NaN no longer does", pred)
				}

				// The same input beside finite neighbours in one pass, an inline
				// actual on it: the neighbours are served, the monitor sees only
				// what was served.
				frame := func(prefix string) []*serve.Request {
					reqs := make([]*serve.Request, 8)
					for i := range reqs {
						reqs[i] = testRequest(rng, fmt.Sprintf("%s-%d", prefix, i))
					}
					reqs[3] = poisoned(prefix + "-3")
					actual := 50.0
					reqs[3].Actual = &actual
					return reqs
				}
				for i, r := range s.DoBatch(frame("batch")) {
					pred := math.NaN()
					if r.Resp != nil {
						pred = r.Resp.Prediction
					}
					served := answer(fmt.Sprintf("DoBatch item %d", i), r.Code, pred, errors.Is(r.Err, serve.ErrNonFinite))
					if served != (i != 3 || wantServed) {
						t.Fatalf("DoBatch item %d: served=%v, the lone request was served=%v", i, served, wantServed)
					}
					if i == 3 && served {
						observed++
					}
				}
				replies, err := c.Predict(frame("wire"))
				if err != nil {
					t.Fatal(err)
				}
				for i, rep := range replies {
					served := answer(fmt.Sprintf("wire item %d", i), rep.Status, rep.Prediction, rep.Error != "")
					if served != (i != 3 || wantServed) {
						t.Fatalf("wire item %d: served=%v, the lone request was served=%v", i, served, wantServed)
					}
					if i == 3 && served {
						observed++
					}
				}

				body, err := json.Marshal(poisoned("json"))
				if err != nil {
					t.Fatal(err)
				}
				httpResp, err := http.Post(web.URL+"/predict", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				var decoded serve.Response
				decodeErr := json.NewDecoder(httpResp.Body).Decode(&decoded)
				httpResp.Body.Close()
				if httpResp.StatusCode == http.StatusOK && decodeErr != nil {
					t.Fatalf("JSON 200 body: %v", decodeErr)
				}
				if answer("JSON", httpResp.StatusCode, decoded.Prediction, true) != wantServed {
					t.Fatalf("JSON served=%v, Do served=%v", !wantServed, wantServed)
				}

				st := s.Stats()
				if got := st.Served + st.Rejected + st.Failed; got != uint64(requests) {
					t.Fatalf("served %d + rejected %d + failed %d = %d outcomes for %d requests", st.Served, st.Rejected, st.Failed, got, requests)
				}
				wantFailed := uint64(0)
				if !wantServed {
					wantFailed = 4 // Do, one DoBatch item, one wire item, JSON
				}
				if st.Failed != wantFailed {
					t.Fatalf("failed = %d, want %d", st.Failed, wantFailed)
				}
				if got := getJSON[quality.Snapshot](t, s, "/quality").Observations; got != observed {
					t.Fatalf("quality monitor observed %d predictions, want %d", got, observed)
				}
				if !wantServed {
					// A refused prediction is not pending either.
					obsReq, _ := json.Marshal(serve.ObserveRequest{RequestID: "do", Actual: 50})
					r, err := http.Post(web.URL+"/observe", "application/json", bytes.NewReader(obsReq))
					if err != nil {
						t.Fatal(err)
					}
					r.Body.Close()
					if r.StatusCode != http.StatusNotFound {
						t.Fatalf("POST /observe for the refused request: %d, want 404", r.StatusCode)
					}
				}
			})
		}
	}
}
