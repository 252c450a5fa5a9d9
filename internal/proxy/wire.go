package proxy

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"env2vec/internal/envmeta"
	"env2vec/internal/obs"
	"env2vec/internal/wire"
)

// wireFront is the proxy's binary-protocol face: the forwarding core the
// JSON handlers run, fed by a wire transport that relays bytes. A batch
// frame is scanned, not decoded: each request goes on to a pooled backend
// connection as its id, a fresh traceparent and the bytes it came with, and
// each reply comes back to the client as the bytes the backend wrote. No
// float of a frame is decoded on the proxy. New builds it when WireBackends
// are configured.
type wireFront struct {
	p     *Proxy
	conns wire.ConnSet
	ccfg  wire.ClientConfig

	connsTotal, batches, subsTotal *obs.Counter
}

// wirePoolIdleCap is how many idle wire clients a backend keeps for reuse
// (Backend.idle). A client that hit a transport error is discarded, not
// returned; one that finds the pool full is closed.
const wirePoolIdleCap = 8

func newWireFront(p *Proxy) *wireFront {
	return &wireFront{
		p: p, ccfg: wire.ClientConfig{Timeout: p.cfg.Timeout},
		connsTotal: p.reg.Counter("env2vec_proxy_wire_connections_total", "Wire-protocol client connections accepted by the proxy.", nil),
		batches:    p.reg.Counter("env2vec_proxy_wire_batches_total", "Predict batch frames routed by the wire front.", nil),
		subsTotal:  p.reg.Counter("env2vec_proxy_wire_subscriptions_total", "Subscribe streams spliced through to backends.", nil),
	}
}

// ServeWire accepts binary-protocol connections on ln and routes them over
// the same backend pool as the HTTP handlers. Call from its own goroutine;
// it returns when ln or the proxy closes. It panics when the proxy was
// configured without WireBackends: a wire listener with no wire backends
// cannot route anything.
func (p *Proxy) ServeWire(ln net.Listener) error {
	wf := p.wire
	if wf == nil {
		panic("proxy: ServeWire requires Config.WireBackends")
	}
	return wf.conns.Serve(ln, wf.handleConn)
}

// close tears down the wire front: listeners, live connections (the backend
// side of spliced streams among them), idle backend clients.
func (wf *wireFront) close() {
	wf.conns.Close() // returns once no handler is left to check a client in
	for _, b := range wf.p.backends {
		for len(b.idle) > 0 {
			(<-b.idle).Close()
		}
	}
}

// handleConn speaks the wire protocol with one client: batch frames relayed
// with failover, or one subscribe stream spliced through to its home backend.
func (wf *wireFront) handleConn(conn net.Conn) {
	defer conn.Close()
	wf.connsTotal.Inc()
	c := wire.NewConn(conn)
	var fr frameRelay
	c.Serve(func(dst, payload []byte) ([]byte, error) {
		return wf.relayBatch(&fr, dst, payload)
	}, func(sub wire.Subscribe) { wf.splice(conn, c, sub) })
}

// wireFanOut bounds how many environment groups of one frame are in flight
// at once: a group holds one pooled connection, and a pool keeps
// wirePoolIdleCap of them.
const wireFanOut = wirePoolIdleCap

// frameRelay is one client connection's scratch, reused frame after frame:
// a connection relays one frame at a time. Its views point into the frame
// being relayed or into buffers the next frame reuses, so what outlives the
// frame — a sticky id, a trace, an exemplar — is copied by whoever keeps it.
type frameRelay struct {
	reqs []wire.RequestView
	ids  []byte // the ids minted for the frame's requests that came without one
	home group  // a single-environment frame: every real client's
	env  envmeta.Environment
	key  string // env's group key, its rendering
	hash uint64 // env's ring position
}

// group is one same-environment slice of a frame on its way through the
// proxy: its scanned requests, the payload an attempt sends, and the reply
// payload (its count included) with its scan.
type group struct {
	reqs    []wire.RequestView
	send    []byte
	reply   []byte
	replies []wire.ReplyView
}

// relayBatch answers one PredictBatch payload; an error means the payload
// is malformed, and the connection answers 400. The frame every real client
// sends is one environment: it goes to its candidates as it is, and the
// reply is written straight into dst. A mixed frame is grouped by
// environment key (scatter), the groups ride their candidate lists
// concurrently, each with the usual retry budget, and the replies land back
// in request order (gather).
func (wf *wireFront) relayBatch(fr *frameRelay, dst, payload []byte) ([]byte, error) {
	var err error
	if fr.reqs, err = wire.ScanPredictBatch(fr.reqs[:0], payload); err != nil {
		return dst, err
	}
	wf.batches.Inc()
	reqs := fr.reqs
	fr.fillIDs()
	mixed := false
	for i := range reqs {
		mixed = mixed || !sameEnv(&reqs[i], &reqs[0])
	}
	if !mixed {
		g := &fr.home
		g.reqs, g.reply = reqs, dst
		_, h := fr.routeKey(&reqs[0])
		wf.forwardGroup(h, g)
		return g.reply, nil
	}

	groups := make(map[string][]int) // request indices by key, in order
	type placed struct {
		key string
		h   uint64
	}
	var order []placed
	var key string
	var h uint64
	for i := range reqs {
		if i == 0 || !sameEnv(&reqs[i], &reqs[i-1]) {
			key, h = fr.routeKey(&reqs[i])
		}
		if _, seen := groups[key]; !seen {
			order = append(order, placed{key, h})
		}
		groups[key] = append(groups[key], i)
	}
	gathered := make([]wire.ReplyView, len(reqs))
	sem := make(chan struct{}, wireFanOut)
	var wg sync.WaitGroup
	for _, pl := range order {
		sem <- struct{}{}
		wg.Add(1)
		go func(h uint64, idxs []int) {
			defer wg.Done()
			defer func() { <-sem }()
			g := &group{reqs: make([]wire.RequestView, len(idxs))}
			for j, i := range idxs {
				g.reqs[j] = reqs[i]
			}
			wf.forwardGroup(h, g)
			for j, i := range idxs {
				gathered[i] = g.replies[j]
			}
		}(pl.h, groups[pl.key])
	}
	wg.Wait()
	return wire.AppendScannedReplies(dst, gathered), nil
}

// fillIDs gives each request that came without an id a fresh one, all of a
// frame's minted into one reused buffer.
func (fr *frameRelay) fillIDs() {
	missing := 0
	for i := range fr.reqs {
		if len(fr.reqs[i].ID) == 0 {
			missing++
		}
	}
	if missing == 0 {
		return
	}
	fr.ids = obs.AppendRequestIDs(fr.ids[:0], missing)
	ids := fr.ids
	for i := range fr.reqs {
		if len(fr.reqs[i].ID) == 0 {
			fr.reqs[i].ID, ids = ids[:16:16], ids[16:]
		}
	}
}

func sameEnv(a, b *wire.RequestView) bool {
	return bytes.Equal(a.Testbed, b.Testbed) && bytes.Equal(a.SUT, b.SUT) &&
		bytes.Equal(a.Testcase, b.Testcase) && bytes.Equal(a.Build, b.Build)
}

// routeKey returns the group key of a request's environment and its ring
// position, the one the JSON front and subscribe streams route the same
// environment to. The connection renders them once per change of
// environment: a client streaming one costs nothing per frame.
func (fr *frameRelay) routeKey(r *wire.RequestView) (string, uint64) {
	if e := &fr.env; fr.key == "" || string(r.Testbed) != e.Testbed || string(r.SUT) != e.SUT ||
		string(r.Testcase) != e.Testcase || string(r.Build) != e.Build {
		fr.env = envmeta.Environment{
			Testbed: string(r.Testbed), SUT: string(r.SUT), Testcase: string(r.Testcase), Build: string(r.Build),
		}
		fr.key, fr.hash = fr.env.String(), envHash(fr.env)
	}
	return fr.key, fr.hash
}

// forwardGroup is the wire adapter over the forwarding core: one
// same-environment slice of a frame is one forwarded unit. It owns only the
// transport — each request relayed as its id, the attempt's traceparent and
// its scanned bytes; the reply copied off the pooled client and scanned; the
// frame's status folded from its items; the backend's span sections stitched
// as they arrived — and the group's sticky bookkeeping. It leaves the reply
// to the group, or the proxy's own error replies, in g.reply (appended to
// what g.reply held) and its scan in g.replies.
func (wf *wireFront) forwardGroup(h uint64, g *group) {
	base := len(g.reply)
	b, code, msg := wf.p.forward(h, "wire:batch", string(g.reqs[0].ID), len(g.reqs),
		func(b *Backend, attemptSpanID string) (status int, err error) {
			g.send = wire.AppendScannedRequests(g.send[:0], g.reqs, attemptSpanID)
			if err := wf.predict(b, g, base); err != nil {
				return 0, err
			}
			return frameStatus(g.replies), nil
		},
		func(dst []byte) ([]byte, int) {
			n := 0
			for i := range g.replies {
				if r := &g.replies[i]; r.Spans != nil {
					dst = append(obs.AppendSpanGroup(dst, r.ID), r.Spans...)
					n += r.SpanCount
				}
			}
			return dst, n
		})
	if b == nil {
		g.reply = wire.AppendPredictReplies(g.reply[:base], errReplies(g.reqs, code, msg))
		g.replies, _ = wire.ScanPredictReplies(g.replies[:0], g.reply[base:]) // cannot fail: rendered just now
		return
	}
	// The sticky map outlives the reply the ids are views into; it copies them.
	wf.p.sticky.PutAllBytes(len(g.replies), func(k int) ([]byte, *Backend, bool) {
		return g.replies[k].ID, b, g.replies[k].Status < 300
	})
}

// frameStatus folds a reply frame into the one status the core judges: a
// frame is as conclusive as its best item. Any served item makes it a 200,
// failing that any conclusive item lends its status; a frame that bounced
// whole is a 429 only if every item was shed, else the 5xx that refused it.
func frameStatus(got []wire.ReplyView) int {
	conclusive, refused := 0, 0
	for k := range got {
		switch s := got[k].Status; {
		case s < 300:
			return http.StatusOK
		case !retryableStatus(s):
			conclusive = s
		case refused == 0 || refused == http.StatusTooManyRequests:
			refused = s
		}
	}
	if conclusive != 0 {
		return conclusive
	}
	return refused
}

// predict relays g.send to one backend over a pooled client, dialling when
// the pool is empty, and leaves the reply at g.reply[base:], scanned into
// g.replies: copied off the client's read buffer before the client goes
// back to the pool. A transport error, a remote error, or a reply that
// fails the scan or answers another number of requests discards the client:
// the connection's state is unknown.
func (wf *wireFront) predict(b *Backend, g *group, base int) error {
	var c *wire.Client
	select {
	case c = <-b.idle:
	default:
		var err error
		if c, err = wire.Dial(b.wireAddr, wf.ccfg); err != nil {
			return err
		}
	}
	rep, err := c.PredictPayload(g.send)
	if err == nil {
		g.reply = append(g.reply[:base], rep...)
		g.replies, err = wire.ScanPredictReplies(g.replies[:0], g.reply[base:])
		if err == nil && len(g.replies) != len(g.reqs) {
			err = fmt.Errorf("%w: %d replies for %d requests", wire.ErrCorrupt, len(g.replies), len(g.reqs))
		}
	}
	if err != nil {
		c.Close()
		return err
	}
	select {
	case b.idle <- c:
	default:
		c.Close()
	}
	return nil
}

func errReplies(group []wire.RequestView, code int, msg string) []wire.Reply {
	out := make([]wire.Reply, len(group))
	for i := range group {
		out[i] = wire.Reply{RequestID: string(group[i].ID), Status: code, Error: msg}
	}
	return out
}

// splice pins a subscribe stream to its environment's home backend and
// then relays raw bytes both ways — no per-frame decode on the hot path.
// The backend handshake and Subscribe are replayed; its SubscribeAck (or
// error) relays to the client, after which the two connections are joined
// until either side closes. Stream failover is reconnect-shaped by design:
// the client redials the proxy and the ring picks the new home.
func (wf *wireFront) splice(client net.Conn, c *wire.Conn, sub wire.Subscribe) {
	p := wf.p
	key := sub.Env.String()
	candidates := p.route(nil, envHash(sub.Env))
	var backendConn net.Conn
	var backendBR *bufio.Reader
	var picked *Backend
	for _, b := range candidates {
		conn, brd, err := wf.dialSubscribe(b, sub)
		if err != nil {
			p.health.reportFailure(b)
			p.log.Debug("wire subscribe dial failed, failing over", "backend", b.name, "err", err)
			continue
		}
		backendConn, backendBR, picked = conn, brd, b
		break
	}
	if backendConn == nil {
		p.log.Warn("wire subscribe refused: no candidate accepted the stream", "env", key, "candidates", len(candidates))
		c.Fail(http.StatusServiceUnavailable, "proxy: no live wire backends")
		return
	}
	defer backendConn.Close()
	wf.subsTotal.Inc()
	p.log.Info("wire stream spliced", "backend", picked.name, "env", key)

	// Track the backend conn so Close severs parked streams too.
	if !wf.conns.Add(backendConn) {
		return
	}
	defer wf.conns.Remove(backendConn)

	// Join the connections. backendBR holds the backend's answer to the
	// Subscribe, which dialSubscribe left buffered, plus any early
	// predictions; c's reader may hold pipelined windows the client sent before
	// that answer reached it. Both buffered remainders must flow first.
	done := make(chan struct{}, 2)
	go func() {
		// client → backend: anything the client buffered, then the raw conn.
		_, _ = io.Copy(backendConn, io.MultiReader(c.Reader(), client))
		// Half-close toward the backend if possible so its responder drain
		// still reaches the client.
		if tc, ok := backendConn.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		} else {
			backendConn.Close()
		}
		done <- struct{}{}
	}()
	go func() {
		// backend → client: the buffered ack/predictions, then the raw conn.
		_, _ = io.Copy(client, io.MultiReader(backendBR, backendConn))
		client.Close()
		done <- struct{}{}
	}()
	<-done
	<-done
}

// dialSubscribe dials b through wire.Dial's handshake, takes the connection
// over, and forwards sub. The backend's answer (SubscribeAck or FrameError)
// is left buffered in the returned reader for the splice to relay verbatim.
func (wf *wireFront) dialSubscribe(b *Backend, sub wire.Subscribe) (net.Conn, *bufio.Reader, error) {
	c, err := wire.Dial(b.wireAddr, wf.ccfg)
	if err != nil {
		return nil, nil, err
	}
	conn, brd := c.Hijack()
	// Under a deadline so a wedged backend cannot park the subscriber
	// forever; cleared before the splice.
	_ = conn.SetDeadline(time.Now().Add(wf.p.cfg.Timeout))
	_, err = conn.Write(wire.AppendFrame(nil, wire.FrameSubscribe, wire.AppendSubscribe(nil, sub)))
	if err == nil {
		// Peek one byte of the answer so a dead backend fails the candidate
		// walk here, not after the splice started.
		_, err = brd.Peek(1)
	}
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, brd, nil
}
