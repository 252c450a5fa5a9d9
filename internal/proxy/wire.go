package proxy

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"env2vec/internal/envmeta"
	"env2vec/internal/obs"
	"env2vec/internal/serve"
	"env2vec/internal/wire"
)

// wireFront is the proxy's binary-protocol face: the forwarding core the
// JSON handlers run, fed by a wire transport — requests decoded off the
// client connection are re-framed (never re-marshalled through JSON) onto
// pooled backend connections. New builds it when WireBackends are configured.
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

// handleConn speaks the wire protocol with one client: batch frames routed
// with failover, or one subscribe stream spliced through to its home backend.
func (wf *wireFront) handleConn(conn net.Conn) {
	defer conn.Close()
	wf.connsTotal.Inc()
	c := wire.NewConn(conn)
	c.Serve(func(dst []byte, reqs []*serve.Request) []byte {
		wf.batches.Inc()
		return wire.AppendPredictReplies(dst, wf.routeBatch(reqs))
	}, func(sub wire.Subscribe) { wf.splice(conn, c, sub) })
}

// wireFanOut bounds how many environment groups of one frame are in flight
// at once: a group holds one pooled connection, and a pool keeps
// wirePoolIdleCap of them.
const wireFanOut = wirePoolIdleCap

func sameEnv(a, b *serve.Request) bool {
	return a.Testbed == b.Testbed && a.SUT == b.SUT && a.Testcase == b.Testcase && a.Build == b.Build
}

func routeKey(r *serve.Request) string {
	return envmeta.Environment{Testbed: r.Testbed, SUT: r.SUT, Testcase: r.Testcase, Build: r.Build}.String()
}

// routeBatch forwards one decoded batch to the ring. The frame every real
// client sends is one environment, and goes to its candidates as it is. A
// mixed frame is grouped by environment key (scatter), the groups ride
// their candidate lists concurrently, each with the usual retry budget,
// and the replies land back in request order (gather).
func (wf *wireFront) routeBatch(reqs []*serve.Request) []wire.Reply {
	obs.FillRequestIDs(len(reqs), func(i int) *string { return &reqs[i].RequestID })
	mixed := false
	for _, r := range reqs {
		mixed = mixed || !sameEnv(r, reqs[0])
	}
	if !mixed {
		return wf.forwardGroup(routeKey(reqs[0]), reqs)
	}

	groups := make(map[string][]int) // request indices by key, in order
	var order []string
	var key string
	for i, r := range reqs {
		if i == 0 || !sameEnv(r, reqs[i-1]) {
			key = routeKey(r)
		}
		if _, seen := groups[key]; !seen {
			order = append(order, key)
		}
		groups[key] = append(groups[key], i)
	}
	replies := make([]wire.Reply, len(reqs))
	sem := make(chan struct{}, wireFanOut)
	var wg sync.WaitGroup
	for _, key := range order {
		sem <- struct{}{}
		wg.Add(1)
		go func(key string, idxs []int) {
			defer wg.Done()
			defer func() { <-sem }()
			group := make([]*serve.Request, len(idxs))
			for j, i := range idxs {
				group[j] = reqs[i]
			}
			for j, rep := range wf.forwardGroup(key, group) {
				replies[idxs[j]] = rep
			}
		}(key, groups[key])
	}
	wg.Wait()
	return replies
}

// forwardGroup is the wire adapter over the forwarding core: one
// same-environment slice of a batch is one forwarded unit. It owns only the
// transport — a pooled Predict with the attempt's traceparent stamped on
// every request, the frame's status folded from its items, the backend
// spans the replies carry as bytes — and the group's sticky bookkeeping.
func (wf *wireFront) forwardGroup(key string, group []*serve.Request) []wire.Reply {
	var got []wire.Reply
	b, code, msg := wf.p.forward(key, "wire:batch", group[0].RequestID, len(group),
		func(b *Backend, attemptSpanID string) (status int, err error) {
			// One block holds the attempt's traceparents, each request's a slice
			// of it. (Should ids outgrow the estimate, the builder moves on to a
			// new block and the slices handed out keep the old one.)
			var block strings.Builder
			block.Grow(len(group) * (len(group[0].RequestID) + len(attemptSpanID) + 8))
			var one [96]byte
			for _, r := range group {
				at := block.Len()
				block.Write(obs.AppendTraceParent(one[:0], r.RequestID, attemptSpanID))
				r.TraceParent = block.String()[at:]
			}
			got, err = wf.predict(b, group)
			return frameStatus(got), err
		},
		func(dst []obs.Span) []obs.Span {
			for i := range got {
				dst = append(dst, got[i].Spans()...)
			}
			return dst
		})
	if b == nil {
		return errReplies(group, code, msg)
	}
	// The sticky map outlives the reply frame the ids sub-slice; it keeps copies.
	wf.p.sticky.PutAll(len(got), func(k int) (string, *Backend, bool) {
		return got[k].RequestID, b, got[k].Status < 300
	})
	return got
}

// frameStatus folds a reply frame into the one status the core judges: a
// frame is as conclusive as its best item. Any served item makes it a 200,
// failing that any conclusive item lends its status; a frame that bounced
// whole is a 429 only if every item was shed, else the 5xx that refused it.
func frameStatus(got []wire.Reply) int {
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

// predict runs one batch against one backend over a pooled client, dialling
// when the pool is empty. Transport errors discard the client; protocol-level
// remote errors are surfaced as errors too (the connection state is unknown,
// drop it).
func (wf *wireFront) predict(b *Backend, group []*serve.Request) ([]wire.Reply, error) {
	var c *wire.Client
	select {
	case c = <-b.idle:
	default:
		var err error
		if c, err = wire.Dial(b.wireAddr, wf.ccfg); err != nil {
			return nil, err
		}
	}
	replies, err := c.Predict(group)
	if err != nil {
		c.Close()
		return nil, err
	}
	select {
	case b.idle <- c:
	default:
		c.Close()
	}
	return replies, nil
}

func errReplies(group []*serve.Request, code int, msg string) []wire.Reply {
	out := make([]wire.Reply, len(group))
	for i, r := range group {
		out[i] = wire.Reply{RequestID: r.RequestID, Status: code, Error: msg}
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
	candidates := p.route(key)
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
