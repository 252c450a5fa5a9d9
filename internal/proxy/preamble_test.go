package proxy

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"

	"env2vec/internal/envmeta"
	"env2vec/internal/serve"
	"env2vec/internal/wire"
)

// serveProxyWire puts a proxy over the given wire backends (the HTTP side is
// never probed) and returns it with its wire listener's address.
func serveProxyWire(t *testing.T, backends []string, wireBackends []string) (*Proxy, string) {
	t.Helper()
	p := New(Config{Backends: backends, WireBackends: wireBackends, FailAfter: 1, RetryBackoff: time.Millisecond, Timeout: 5 * time.Second})
	t.Cleanup(p.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = p.ServeWire(ln) }()
	return p, ln.Addr().String()
}

// TestPreambleOneBehaviour drives the handshake cases of
// wire.TestProtocolViolations, and the frames that may not follow it, against
// a wire.Server listener and against the proxy's ServeWire listener with the
// same expectations: both run wire.Conn.Serve, the one frame loop, and the
// proxy hands a subscribed connection to the backend's stream, which reads
// Window frames only.
func TestPreambleOneBehaviour(t *testing.T) {
	be := newE2EBackend(t, 3)
	serverAddr, _ := attachWire(t, be)
	_, proxyAddr := serveProxyWire(t, []string{be.srv.URL}, []string{serverAddr})

	frame := func(typ byte, payload []byte) []byte { return wire.AppendFrame(nil, typ, payload) }
	hello := frame(wire.FrameHello, wire.AppendHello(nil, wire.Hello{Version: wire.ProtocolVersion}))
	subscribe := frame(wire.FrameSubscribe, wire.AppendSubscribe(nil, wire.Subscribe{Env: testEnv()}))
	window := frame(wire.FrameWindow, wire.AppendWindow(nil, wire.Window{Seq: 1, CF: []float64{1, 2, 3}, Window: []float64{50, 51}}))
	batch := frame(wire.FramePredictBatch, wire.AppendPredictBatch(nil, []*serve.Request{{
		CF: []float64{1, 2, 3}, Window: []float64{50, 51}, Testbed: "tb1", SUT: "fw", Testcase: "load", Build: "B1",
	}}))
	afterHello := func(frames ...[]byte) []byte { return bytes.Join(append([][]byte{hello}, frames...), nil) }
	helloAck := []byte{wire.FrameHelloAck}
	subscribed := []byte{wire.FrameHelloAck, wire.FrameSubscribeAck}

	cases := []struct {
		name     string
		send     []byte
		acks     []byte // the frame types answered before the FrameError
		wantCode int    // the FrameError's code; 0 = the connection just ends, nothing is written; -1 = it ends, however
	}{
		{"wrong version", frame(wire.FrameHello, wire.AppendHello(nil, wire.Hello{Version: 99})), nil, http.StatusHTTPVersionNotSupported},
		{"first frame not a Hello", frame(wire.FramePredictBatch, nil), nil, http.StatusBadRequest},
		// The endpoint closes with most of the garbage unread, so its answer
		// may be cut short by a reset: the point is that it terminates.
		{"garbage", bytes.Repeat([]byte{0xFF}, 256), nil, -1},
		{"clean EOF before Hello", nil, nil, 0},
		{"unknown frame type", afterHello(frame(0x7e, nil)), helloAck, http.StatusBadRequest},
		{"corrupt PredictBatch", afterHello(frame(wire.FramePredictBatch, []byte{0xFF})), helloAck, http.StatusBadRequest},
		{"Window before Subscribe", afterHello(window), helloAck, http.StatusBadRequest},
		{"second Subscribe", afterHello(subscribe, subscribe), subscribed, http.StatusBadRequest},
		{"PredictBatch after Subscribe", afterHello(subscribe, batch), subscribed, http.StatusBadRequest},
	}
	for _, tc := range cases {
		for _, ep := range []struct{ name, addr string }{{"wire.Server", serverAddr}, {"proxy", proxyAddr}} {
			t.Run(tc.name+"/"+ep.name, func(t *testing.T) {
				conn, err := net.Dial("tcp", ep.addr)
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				_ = conn.SetDeadline(time.Now().Add(5 * time.Second)) // a hang fails here
				if _, err := conn.Write(tc.send); err != nil {
					t.Fatal(err)
				}
				if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
					t.Fatal(err)
				}
				br := bufio.NewReader(conn)
				if tc.wantCode < 0 {
					if _, err := io.Copy(io.Discard, br); errors.Is(err, os.ErrDeadlineExceeded) {
						t.Fatal("connection still open after a garbage preamble")
					}
					return
				}
				for _, typ := range tc.acks {
					if f, err := wire.ReadFrame(br, 0, nil); err != nil || f.Type != typ {
						t.Fatalf("answer: %+v %v, want frame type %#x", f, err, typ)
					}
				}
				if tc.wantCode != 0 {
					f, err := wire.ReadFrame(br, 0, nil)
					if err != nil || f.Type != wire.FrameError {
						t.Fatalf("answer: %+v %v, want a FrameError", f, err)
					}
					if ef, err := wire.DecodeError(f.Payload); err != nil || ef.Code != tc.wantCode {
						t.Fatalf("error frame %+v %v, want code %d", ef, err, tc.wantCode)
					}
				}
				if rest, err := io.ReadAll(br); err != nil || len(rest) != 0 {
					t.Fatalf("connection did not end cleanly after the answer: %d more bytes, err %v", len(rest), err)
				}
			})
		}
	}
}

func testEnv() envmeta.Environment {
	return envmeta.Environment{Testbed: "tb1", SUT: "fw", Testcase: "load", Build: "B1"}
}

// TestWireSubscribeFailsOver: a subscribe whose home backend is down lands
// on the next candidate, and the stream works.
func TestWireSubscribeFailsOver(t *testing.T) {
	b0, b1 := newE2EBackend(t, 7), newE2EBackend(t, 11)
	w0, ws0 := attachWire(t, b0)
	w1, ws1 := attachWire(t, b1)
	p, addr := serveProxyWire(t, []string{b0.srv.URL, b1.srv.URL}, []string{w0, w1})
	home := p.home(envHash(testEnv()))
	if home == p.backends[0] {
		ws0.Close()
	} else {
		ws1.Close()
	}

	c, err := wire.Dial(addr, wire.ClientConfig{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Subscribe(testEnv(), "")
	if err != nil {
		t.Fatalf("subscribe with the home down: %v", err)
	}
	_ = st.SetDeadline(time.Now().Add(5 * time.Second))
	if err := st.Send(wire.Window{Seq: st.NextSeq(), CF: []float64{1, 2, 3}, Window: []float64{50, 51}}); err != nil {
		t.Fatal(err)
	}
	if pred, err := st.Recv(); err != nil || pred.Status != http.StatusOK {
		t.Fatalf("prediction over the failed-over stream: %+v %v", pred, err)
	}
	if home.Alive() {
		t.Fatal("the dead home was not reported to the health state machine")
	}
}

// TestWireSubscribeRelaysBackendError: the splice relays the backend's answer
// to a Subscribe verbatim — a backend with no model answers 503, and that is
// what the client reads, code and message.
func TestWireSubscribeRelaysBackendError(t *testing.T) {
	url, wireAddr := newKindBackend(t, modelless)
	_, addr := serveProxyWire(t, []string{url}, []string{wireAddr})
	c, err := wire.Dial(addr, wire.ClientConfig{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Subscribe(testEnv(), "")
	var re *wire.RemoteError
	if !errors.As(err, &re) || re.Code != http.StatusServiceUnavailable || re.Message != serve.ErrNoModel.Error() {
		t.Fatalf("subscribe to a model-less backend: %v, want the backend's 503 %q", err, serve.ErrNoModel)
	}
}
