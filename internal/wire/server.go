package wire

import (
	"bufio"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"

	"env2vec/internal/obs"
	"env2vec/internal/serve"
)

// ServerConfig sizes the binary-protocol listener.
type ServerConfig struct {
	// MaxPayload caps one frame's payload (default DefaultMaxPayload).
	// Larger frames are rejected with a connection-level error — the
	// binary-path twin of the JSON handlers' MaxBytesReader.
	MaxPayload int
	// StreamInflight caps pipelined windows per subscribed connection
	// (default 64); the cap is what bounds a runaway subscriber to one
	// connection's worth of queue slots.
	StreamInflight int
	// Obs is the metrics registry (nil gets a private one); Logger
	// receives structured connection events (nil discards).
	Obs    *obs.Registry
	Logger *slog.Logger
}

// Server serves the wire protocol beside a serve.Server's JSON listener.
// Decoded batches enter the same micro-batcher through DoBatch; subscribed
// connections stream windows in and predictions out over one persistent
// connection per environment.
type Server struct {
	dispatch *serve.Server
	cfg      ServerConfig
	log      *slog.Logger

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
	if cfg.MaxPayload <= 0 {
		cfg.MaxPayload = DefaultMaxPayload
	}
	if cfg.StreamInflight <= 0 {
		cfg.StreamInflight = 64
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.DiscardLogger()
	}
	s := &Server{dispatch: dispatch, cfg: cfg, log: logger}
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
	return s.conns.Serve(ln, func(conn net.Conn) {
		s.connsTotal.Inc()
		s.handleConn(conn)
	})
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

// connWriter serializes frame writes from the read loop and the pipelined
// stream responders onto one buffered connection.
type connWriter struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	out *obs.Counter
	buf []byte // prediction encode scratch, guarded by mu
}

func (cw *connWriter) write(typ byte, payload []byte) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return cw.writeLocked(typ, payload)
}

func (cw *connWriter) writeLocked(typ byte, payload []byte) error {
	if err := WriteFrame(cw.bw, typ, payload); err != nil {
		return err
	}
	cw.out.Inc()
	return cw.bw.Flush()
}

// writePrediction encodes and writes one streamed answer under the lock,
// so the responders share one scratch buffer.
func (cw *connWriter) writePrediction(p Prediction) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	cw.buf = AppendPrediction(cw.buf[:0], p)
	return cw.writeLocked(FramePrediction, cw.buf)
}

// handleConn speaks the protocol on one connection: Hello negotiation,
// then batch predicts and/or one subscribe-mode stream.
func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)
	cw := &connWriter{bw: bufio.NewWriterSize(conn, 64<<10), out: s.framesOut}
	fail := func(code int, msg string) {
		s.protoErrors.Inc()
		_ = cw.write(FrameError, AppendError(nil, ErrorFrame{Code: code, Message: msg}))
	}

	// One inbound and one reply buffer serve the whole connection: decoding
	// copies what it keeps, and a reply is written before the next is built.
	var rbuf, out []byte

	// Handshake: the first frame must be a Hello whose version we speak.
	f, err := ReadFrame(br, s.cfg.MaxPayload, &rbuf)
	if err != nil {
		if !errors.Is(err, io.EOF) {
			fail(http.StatusBadRequest, err.Error())
		}
		return
	}
	s.framesIn.Inc()
	if f.Type != FrameHello {
		fail(http.StatusBadRequest, "wire: expected Hello")
		return
	}
	hello, err := DecodeHello(f.Payload)
	if err != nil {
		fail(http.StatusBadRequest, err.Error())
		return
	}
	if hello.Version != ProtocolVersion {
		fail(http.StatusHTTPVersionNotSupported, ErrVersion.Error())
		return
	}
	if err := cw.write(FrameHelloAck, AppendHello(nil, Hello{
		Version: ProtocolVersion, Features: FeatureBatch | FeatureSubscribe,
	})); err != nil {
		return
	}

	// Stream state: one subscription per connection, windows pipelined up
	// to StreamInflight. The WaitGroup keeps responders alive past a read
	// error so already-enqueued windows still answer.
	var sub *Subscribe
	sem := make(chan struct{}, s.cfg.StreamInflight)
	var wg sync.WaitGroup
	defer wg.Wait()

	for {
		f, err := ReadFrame(br, s.cfg.MaxPayload, &rbuf)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				fail(http.StatusBadRequest, err.Error())
			}
			return
		}
		s.framesIn.Inc()
		switch f.Type {
		case FramePredictBatch:
			reqs, err := DecodePredictBatch(f.Payload)
			if err != nil {
				fail(http.StatusBadRequest, err.Error())
				return
			}
			s.batchReqs.Add(uint64(len(reqs)))
			out = AppendResults(out[:0], reqs, s.dispatch.DoBatch(reqs))
			if err := cw.write(FramePredictReply, out); err != nil {
				return
			}

		case FrameSubscribe:
			req, err := DecodeSubscribe(f.Payload)
			if err != nil {
				fail(http.StatusBadRequest, err.Error())
				return
			}
			if sub != nil {
				fail(http.StatusBadRequest, "wire: already subscribed")
				return
			}
			b := s.dispatch.Bundle()
			if b == nil {
				fail(http.StatusServiceUnavailable, serve.ErrNoModel.Error())
				return
			}
			sub = &req
			s.subsTotal.Inc()
			cfg := b.Model.Config()
			if err := cw.write(FrameSubscribeAck, AppendSubscribeAck(nil, SubscribeAck{
				Model: b.Name, Version: b.Version, In: cfg.In, Window: cfg.Window,
			})); err != nil {
				return
			}

		case FrameWindow:
			if sub == nil {
				fail(http.StatusBadRequest, "wire: Window before Subscribe")
				return
			}
			wnd, err := DecodeWindow(f.Payload)
			if err != nil {
				fail(http.StatusBadRequest, err.Error())
				return
			}
			s.streamWindows.Inc()
			env, chain := sub.Env, sub.ChainID
			sem <- struct{}{}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				req := &serve.Request{
					CF: wnd.CF, Window: wnd.Window,
					Testbed: env.Testbed, SUT: env.SUT,
					Testcase: env.Testcase, Build: env.Build,
					ChainID: chain, Actual: wnd.Actual,
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
				_ = cw.writePrediction(pred)
			}()

		default:
			fail(http.StatusBadRequest, "wire: unexpected frame type")
			return
		}
	}
}
