package wire

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"sync"

	"env2vec/internal/obs"
	"env2vec/internal/serve"
)

// ServerConfig configures the binary-protocol listener.
type ServerConfig struct {
	// Obs is the metrics registry (nil gets a private one).
	Obs *obs.Registry
}

// streamInflight caps the windows one subscribed connection has in the
// micro-batcher at once: the cap is what bounds a runaway subscriber to one
// connection's worth of queue slots.
const streamInflight = 64

// Server serves the wire protocol beside a serve.Server's JSON listener.
// Decoded batches enter the same micro-batcher through DoBatch; subscribed
// connections stream windows in and predictions out over one persistent
// connection per environment.
type Server struct {
	dispatch *serve.Server

	conns ConnSet

	connsTotal, subsTotal    *obs.Counter
	framesIn, framesOut      *obs.Counter
	batchReqs, streamWindows *obs.Counter
	protoErrors              *obs.Counter
}

// NewServer builds a wire server over the prediction engine.
func NewServer(dispatch *serve.Server, cfg ServerConfig) *Server {
	if dispatch == nil {
		panic("wire: NewServer(nil dispatcher)")
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{dispatch: dispatch}
	s.connsTotal = reg.Counter("env2vec_wire_connections_total", "Wire-protocol connections accepted.", nil)
	s.subsTotal = reg.Counter("env2vec_wire_subscriptions_total", "Subscribe-mode sessions opened.", nil)
	s.framesIn = reg.Counter("env2vec_wire_frames_total", "Wire frames by direction.", obs.Labels{"dir": "in"})
	s.framesOut = reg.Counter("env2vec_wire_frames_total", "Wire frames by direction.", obs.Labels{"dir": "out"})
	s.batchReqs = reg.Counter("env2vec_wire_batch_requests_total", "Predict requests carried by batch frames.", nil)
	s.streamWindows = reg.Counter("env2vec_wire_stream_windows_total", "Windows carried by subscribe-mode streams.", nil)
	s.protoErrors = reg.Counter("env2vec_wire_protocol_errors_total", "Connections dropped for malformed or out-of-order frames.", nil)
	return s
}

// Serve accepts connections on ln until the listener or the server closes.
func (s *Server) Serve(ln net.Listener) error {
	return s.conns.Serve(ln, s.handleConn)
}

// Close stops the listeners, severs live connections, and waits for
// connection handlers to unwind. In-flight forward passes complete inside
// the serve.Server; this only tears down the transport.
func (s *Server) Close() { s.conns.Close() }

// ConnSet is the connection bookkeeping of a wire-protocol endpoint — the
// Server here, the proxy's wire front: it accepts on any number of
// listeners, runs one handler goroutine per connection, and on Close stops
// the listeners, severs the live connections and waits for the handlers.
// The zero value is ready to use.
type ConnSet struct {
	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool
	wg        sync.WaitGroup
}

// Serve accepts connections on ln until the listener or the set closes,
// handling each on its own goroutine.
func (cs *ConnSet) Serve(ln net.Listener, handle func(net.Conn)) error {
	cs.mu.Lock()
	if cs.closed {
		cs.mu.Unlock()
		ln.Close()
		return errors.New("wire: endpoint closed")
	}
	if cs.listeners == nil {
		cs.listeners = make(map[net.Listener]struct{})
	}
	cs.listeners[ln] = struct{}{}
	cs.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			cs.mu.Lock()
			closed := cs.closed
			delete(cs.listeners, ln)
			cs.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		if !cs.Add(conn) {
			conn.Close()
			return nil
		}
		go func() {
			defer cs.Remove(conn)
			handle(conn)
		}()
	}
}

// Add registers a live connection for Close to sever and wait on; it
// reports false, registering nothing, once the set has closed. The caller
// pairs it with Remove.
func (cs *ConnSet) Add(conn net.Conn) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.closed {
		return false
	}
	if cs.conns == nil {
		cs.conns = make(map[net.Conn]struct{})
	}
	cs.conns[conn] = struct{}{}
	cs.wg.Add(1)
	return true
}

// Remove forgets a connection registered with Add.
func (cs *ConnSet) Remove(conn net.Conn) {
	cs.mu.Lock()
	delete(cs.conns, conn)
	cs.mu.Unlock()
	cs.wg.Done()
}

// Close stops the listeners, severs the live connections and waits until
// every one has been removed. Closing twice is harmless.
func (cs *ConnSet) Close() {
	cs.mu.Lock()
	if !cs.closed {
		cs.closed = true
		for ln := range cs.listeners {
			ln.Close()
		}
		for conn := range cs.conns {
			conn.Close()
		}
	}
	cs.mu.Unlock()
	cs.wg.Wait()
}

// Conn is the accepting side of one protocol connection, shared by Server
// and the proxy's wire front: buffered framing over one reusable read
// buffer, writes serialized (the read loop and pipelined stream responders
// share the connection) and flushed, violations answered with a typed
// FrameError, and the one frame loop both sides run (Serve).
type Conn struct {
	br   *bufio.Reader
	rbuf []byte // inbound payloads: decoding copies what it keeps

	mu  sync.Mutex
	bw  *bufio.Writer
	buf []byte // prediction encode scratch, guarded by mu

	// Frames read and written, and violations answered; nil counts nothing.
	in, out, violations *obs.Counter
}

// NewConn wraps an accepted connection.
func NewConn(conn net.Conn) *Conn {
	return &Conn{br: bufio.NewReaderSize(conn, 64<<10), bw: bufio.NewWriterSize(conn, 64<<10)}
}

// Reader hands over the buffered read side, for a caller that takes the
// connection over (the proxy's subscribe splice); the Conn reads no more.
func (c *Conn) Reader() *bufio.Reader { return c.br }

// read returns the next frame, its payload valid until the following read.
// ok is false when the connection is over: the peer left on a frame
// boundary, or sent a malformed frame, which has been answered with a 400.
func (c *Conn) read() (f Frame, ok bool) {
	f, err := ReadFrame(c.br, DefaultMaxPayload, &c.rbuf)
	if err != nil {
		if !errors.Is(err, io.EOF) {
			c.Fail(http.StatusBadRequest, err.Error())
		}
		return f, false
	}
	c.in.Inc()
	return f, true
}

// write sends one frame and flushes it.
func (c *Conn) write(typ byte, payload []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writeLocked(typ, payload)
}

func (c *Conn) writeLocked(typ byte, payload []byte) error {
	if err := WriteFrame(c.bw, typ, payload); err != nil {
		return err
	}
	c.out.Inc()
	return c.bw.Flush()
}

// writePrediction encodes and writes one streamed answer under the lock,
// so the responders share one scratch buffer.
func (c *Conn) writePrediction(p Prediction) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buf = AppendPrediction(c.buf[:0], p)
	return c.writeLocked(FramePrediction, c.buf)
}

// Fail answers with a connection-level FrameError; the caller then drops the
// connection. Only a protocol violation — 400, or 505 for a foreign version —
// is counted as one: a refusal such as a model-less backend's 503 is not.
func (c *Conn) Fail(code int, msg string) {
	if code == http.StatusBadRequest || code == http.StatusHTTPVersionNotSupported {
		c.violations.Inc()
	}
	_ = c.write(FrameError, AppendError(nil, ErrorFrame{Code: code, Message: msg}))
}

// Serve speaks the protocol on one accepted connection, for the backend and
// the proxy alike. The first frame must be a Hello whose version this side
// speaks, answered with a HelloAck advertising batch and subscribe. Then each
// PredictBatch is answered with the PredictReply payload batch appends to its
// scratch, until the peer leaves or breaks the protocol, or a Subscribe hands
// the connection over to subscribe, which keeps it until Serve returns. A
// violation is answered with Fail — 400, or 505 for a foreign version — and a
// peer that leaves on a frame boundary with nothing.
func (c *Conn) Serve(batch func(dst []byte, reqs []*serve.Request) []byte, subscribe func(Subscribe)) {
	if !c.serveHello() {
		return
	}
	var out []byte // reply scratch: a reply is written before the next is built
	for {
		f, ok := c.read()
		if !ok {
			return
		}
		switch f.Type {
		case FramePredictBatch:
			reqs, err := DecodePredictBatch(f.Payload)
			if err != nil {
				c.Fail(http.StatusBadRequest, err.Error())
				return
			}
			out = batch(out[:0], reqs)
			if c.write(FramePredictReply, out) != nil {
				return
			}
		case FrameSubscribe:
			sub, err := DecodeSubscribe(f.Payload)
			if err != nil {
				c.Fail(http.StatusBadRequest, err.Error())
				return
			}
			subscribe(sub)
			return
		default:
			c.Fail(http.StatusBadRequest, "wire: unexpected frame type")
			return
		}
	}
}

// serveHello is Serve's preamble; it reports whether the connection may
// proceed.
func (c *Conn) serveHello() bool {
	f, ok := c.read()
	if !ok {
		return false
	}
	if f.Type != FrameHello {
		c.Fail(http.StatusBadRequest, "wire: expected Hello")
		return false
	}
	hello, err := DecodeHello(f.Payload)
	if err != nil {
		c.Fail(http.StatusBadRequest, err.Error())
		return false
	}
	if hello.Version != ProtocolVersion {
		c.Fail(http.StatusHTTPVersionNotSupported, ErrVersion.Error())
		return false
	}
	return c.write(FrameHelloAck, AppendHello(nil, Hello{
		Version: ProtocolVersion, Features: FeatureBatch | FeatureSubscribe,
	})) == nil
}

// handleConn runs one connection's frame loop: batches through DoBatch, a
// subscription through stream.
func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	s.connsTotal.Inc()
	c := NewConn(conn)
	c.in, c.out, c.violations = s.framesIn, s.framesOut, s.protoErrors
	c.Serve(func(dst []byte, reqs []*serve.Request) []byte {
		s.batchReqs.Add(uint64(len(reqs)))
		return AppendResults(dst, reqs, s.dispatch.DoBatch(reqs))
	}, func(sub Subscribe) { s.stream(c, sub) })
}

// stream serves one subscription: the ack names the model and input shape,
// then only Window frames may follow, each served on its own responder, up to
// streamInflight at once. The wait keeps responders alive past a read error,
// so windows already enqueued still answer.
func (s *Server) stream(c *Conn, sub Subscribe) {
	b := s.dispatch.Bundle()
	if b == nil {
		c.Fail(http.StatusServiceUnavailable, serve.ErrNoModel.Error())
		return
	}
	s.subsTotal.Inc()
	cfg := b.Model.Config()
	if c.write(FrameSubscribeAck, AppendSubscribeAck(nil, SubscribeAck{
		Model: b.Name, Version: b.Version, In: cfg.In, Window: cfg.Window,
	})) != nil {
		return
	}

	sem := make(chan struct{}, streamInflight)
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		f, ok := c.read()
		if !ok {
			return
		}
		if f.Type != FrameWindow {
			c.Fail(http.StatusBadRequest, "wire: only Window frames follow a Subscribe")
			return
		}
		wnd, err := DecodeWindow(f.Payload)
		if err != nil {
			c.Fail(http.StatusBadRequest, err.Error())
			return
		}
		s.streamWindows.Inc()
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			req := &serve.Request{
				CF: wnd.CF, Window: wnd.Window,
				Testbed: sub.Env.Testbed, SUT: sub.Env.SUT,
				Testcase: sub.Env.Testcase, Build: sub.Env.Build,
				ChainID: sub.ChainID, Actual: wnd.Actual,
				RequestID: wnd.RequestID,
			}
			resp, code, err := s.dispatch.Do(req)
			pred := Prediction{Seq: wnd.Seq, Status: code}
			if err != nil {
				pred.Error = err.Error()
			} else {
				pred.Status = http.StatusOK
				pred.Value = resp.Prediction
				pred.ModelVersion = resp.ModelVersion
				pred.Anomalous = resp.Anomalous
				pred.Deviation = resp.Deviation
			}
			_ = c.writePrediction(pred)
		}()
	}
}
