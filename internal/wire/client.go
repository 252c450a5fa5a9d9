package wire

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"env2vec/internal/envmeta"
	"env2vec/internal/serve"
)

// ClientConfig tunes a wire client.
type ClientConfig struct {
	// Timeout bounds one Predict exchange end to end (0 = none). Streams
	// manage their own pacing and are not subject to it.
	Timeout time.Duration
}

// RemoteError is a FrameError surfaced by the peer: an HTTP-shaped status
// code plus message. A 429 here is the same shed the JSON path reports.
type RemoteError struct {
	Code    int
	Message string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("wire: remote error %d: %s", e.Code, e.Message)
}

// Client is one wire-protocol connection. Predict exchanges are serialized
// per client (one outstanding batch); open one client per worker — or per
// pooled slot — for concurrency. After Subscribe the connection belongs to
// the returned Stream and Predict must not be used again.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	cfg  ClientConfig

	features uint64

	mu   sync.Mutex // serializes Predict exchanges and Stream sends
	buf  []byte     // encode scratch, reused across exchanges
	rbuf []byte     // inbound payloads, reused frame after frame
}

// dialTimeout bounds Dial's TCP connect.
const dialTimeout = 5 * time.Second

// Dial connects, performs the Hello handshake, and returns a ready client.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	c, err := NewClient(conn, cfg)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// NewClient performs the Hello handshake over an existing connection.
func NewClient(conn net.Conn, cfg ClientConfig) (*Client, error) {
	c := &Client{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 64<<10),
		bw:   bufio.NewWriterSize(conn, 64<<10),
		cfg:  cfg,
	}
	payload, err := c.exchange(FrameHello, AppendHello(nil, Hello{Version: ProtocolVersion}), FrameHelloAck)
	if err != nil {
		return nil, err
	}
	ack, err := DecodeHello(payload)
	if err != nil {
		return nil, err
	}
	if ack.Version != ProtocolVersion {
		return nil, fmt.Errorf("%w: server speaks v%d", ErrVersion, ack.Version)
	}
	c.features = ack.Features
	return c, nil
}

// Features returns the server's advertised feature bits.
func (c *Client) Features() uint64 { return c.features }

// Close severs the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Hijack hands the handshaken connection and its buffered reader over to the
// caller (the proxy splices a subscribe stream over them); the Client must
// not be used afterwards.
func (c *Client) Hijack() (net.Conn, *bufio.Reader) { return c.conn, c.br }

func (c *Client) writeFrame(typ byte, payload []byte) error {
	if err := WriteFrame(c.bw, typ, payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

// readFrame reads the next frame into the client's read buffer. Decoders
// copy what they keep, so the payload only has to last until the next call.
func (c *Client) readFrame() (Frame, error) {
	return ReadFrame(c.br, DefaultMaxPayload, &c.rbuf)
}

// exchange is one request/answer turn bounded by cfg.Timeout: write one
// frame, then expect one of type want. Callers hold c.mu.
func (c *Client) exchange(typ byte, payload []byte, want byte) ([]byte, error) {
	if c.cfg.Timeout > 0 {
		_ = c.conn.SetDeadline(time.Now().Add(c.cfg.Timeout))
		defer c.conn.SetDeadline(time.Time{})
	}
	if err := c.writeFrame(typ, payload); err != nil {
		return nil, err
	}
	return c.expect(want)
}

// expect reads the next frame and returns its payload when it is of type
// want. A FrameError surfaces as *RemoteError (an undecodable one still as a
// usable error), any other type as ErrCorrupt.
func (c *Client) expect(want byte) ([]byte, error) {
	f, err := c.readFrame()
	switch {
	case err != nil:
		return nil, err
	case f.Type == want:
		return f.Payload, nil
	case f.Type != FrameError:
		return nil, fmt.Errorf("%w: unexpected frame 0x%02x", ErrCorrupt, f.Type)
	}
	ef, err := DecodeError(f.Payload)
	if err != nil {
		return nil, fmt.Errorf("wire: undecodable remote error: %w", err)
	}
	return nil, &RemoteError{Code: ef.Code, Message: ef.Message}
}

// Predict sends one batch of requests and waits for the batched replies,
// in request order. The zero-JSON round trip: requests are framed binary,
// replies decode straight into prediction values, their stage spans kept
// encoded until Reply.Spans is called.
func (c *Client) Predict(reqs []*serve.Request) ([]Reply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buf = AppendPredictBatch(c.buf[:0], reqs)
	payload, err := c.exchange(FramePredictBatch, c.buf, FramePredictReply)
	if err != nil {
		return nil, err
	}
	replies, err := DecodePredictReplies(payload)
	if err != nil {
		return nil, err
	}
	if len(replies) != len(reqs) {
		return nil, fmt.Errorf("%w: %d replies for %d requests", ErrCorrupt, len(replies), len(reqs))
	}
	return replies, nil
}

// Stream is a subscribe-mode session: one persistent connection pinned to
// one environment, windows streamed in (Send, pipelined) and predictions
// streamed out (Recv, correlated by Seq). Send and Recv may run from
// different goroutines; neither may race itself.
type Stream struct {
	c   *Client
	ack SubscribeAck
	seq atomic.Uint64
}

// Subscribe pins the connection to env and returns the stream. The
// connection speaks only Window/Prediction frames afterwards.
func (c *Client) Subscribe(env envmeta.Environment, chainID string) (*Stream, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	payload, err := c.exchange(FrameSubscribe, AppendSubscribe(nil, Subscribe{Env: env, ChainID: chainID}), FrameSubscribeAck)
	if err != nil {
		return nil, err
	}
	ack, err := DecodeSubscribeAck(payload)
	if err != nil {
		return nil, err
	}
	return &Stream{c: c, ack: ack}, nil
}

// Ack returns the subscription acknowledgement: the served model's
// identity and input shape.
func (st *Stream) Ack() SubscribeAck { return st.ack }

// SetDeadline bounds all future Send and Recv calls (zero clears it) —
// load generators and tests use it so a wedged peer cannot park them
// forever.
func (st *Stream) SetDeadline(t time.Time) error { return st.c.conn.SetDeadline(t) }

// NextSeq issues the next window sequence number (starting at 1).
func (st *Stream) NextSeq() uint64 { return st.seq.Add(1) }

// Send streams one window. Safe to call while a Recv is blocked.
func (st *Stream) Send(w Window) error {
	st.c.mu.Lock()
	defer st.c.mu.Unlock()
	st.c.buf = AppendWindow(st.c.buf[:0], w)
	return st.c.writeFrame(FrameWindow, st.c.buf)
}

// Recv blocks for the next prediction (or stream-level error frame, which
// surfaces as *RemoteError).
func (st *Stream) Recv() (Prediction, error) {
	payload, err := st.c.expect(FramePrediction)
	if err != nil {
		return Prediction{}, err
	}
	return DecodePrediction(payload)
}

// Close severs the underlying connection.
func (st *Stream) Close() error { return st.c.Close() }

// Err maps a non-200 wire status onto an error for callers that want
// Go-error semantics; 200 maps to nil.
func (p Prediction) Err() error {
	if p.Status == http.StatusOK {
		return nil
	}
	return &RemoteError{Code: p.Status, Message: p.Error}
}
