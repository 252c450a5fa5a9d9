package proxy

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"env2vec/internal/envmeta"
	"env2vec/internal/obs"
	"env2vec/internal/serve"
	"env2vec/internal/wire"
)

// wireFront is the proxy's binary-protocol face: the same ring, health
// hysteresis, retry budget, sticky bookkeeping, and trace stitching as the
// JSON handlers, but speaking wire frames end to end — requests decoded
// off the client connection are re-framed (never re-marshalled through
// JSON) onto pooled backend connections.
type wireFront struct {
	p     *Proxy
	conns wire.ConnSet
	pools map[string]*wirePool // keyed by backend wire address; fixed after init

	connsTotal, batches  *obs.Counter
	subsTotal, relayErrs *obs.Counter
}

// wirePool keeps idle wire clients to one backend for reuse. Checked-out
// clients that hit a transport error are discarded, not returned.
type wirePool struct {
	addr string
	cfg  wire.ClientConfig

	mu   sync.Mutex
	idle []*wire.Client
}

const wirePoolIdleCap = 8

func (wp *wirePool) get() (*wire.Client, error) {
	wp.mu.Lock()
	if n := len(wp.idle); n > 0 {
		c := wp.idle[n-1]
		wp.idle = wp.idle[:n-1]
		wp.mu.Unlock()
		return c, nil
	}
	wp.mu.Unlock()
	return wire.Dial(wp.addr, wp.cfg)
}

func (wp *wirePool) put(c *wire.Client) {
	wp.mu.Lock()
	if len(wp.idle) < wirePoolIdleCap {
		wp.idle = append(wp.idle, c)
		wp.mu.Unlock()
		return
	}
	wp.mu.Unlock()
	c.Close()
}

func (wp *wirePool) drain() {
	wp.mu.Lock()
	idle := wp.idle
	wp.idle = nil
	wp.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}

// initWireFront builds the front lazily on the first ServeWire call; it
// panics when the proxy was configured without WireBackends because a wire
// listener with no wire backends cannot route anything.
func (p *Proxy) initWireFront() *wireFront {
	p.wireOnce.Do(func() {
		if len(p.cfg.WireBackends) == 0 {
			panic("proxy: ServeWire requires Config.WireBackends")
		}
		wf := &wireFront{p: p, pools: make(map[string]*wirePool)}
		ccfg := wire.ClientConfig{Timeout: p.cfg.Timeout}
		for _, b := range p.backends {
			if b.wireAddr != "" {
				wf.pools[b.wireAddr] = &wirePool{addr: b.wireAddr, cfg: ccfg}
			}
		}
		wf.connsTotal = p.reg.Counter("env2vec_proxy_wire_connections_total", "Wire-protocol client connections accepted by the proxy.", nil)
		wf.batches = p.reg.Counter("env2vec_proxy_wire_batches_total", "Predict batch frames routed by the wire front.", nil)
		wf.subsTotal = p.reg.Counter("env2vec_proxy_wire_subscriptions_total", "Subscribe streams spliced through to backends.", nil)
		wf.relayErrs = p.reg.Counter("env2vec_proxy_wire_relay_errors_total", "Wire batches or streams that failed against every candidate.", nil)
		p.wire = wf
	})
	return p.wire
}

// ServeWire accepts binary-protocol connections on ln and routes them over
// the same backend pool as the HTTP handlers. Call from its own goroutine;
// it returns when ln or the proxy closes.
func (p *Proxy) ServeWire(ln net.Listener) error {
	wf := p.initWireFront()
	if wf == nil {
		ln.Close()
		return errors.New("proxy: closed")
	}
	return wf.conns.Serve(ln, func(conn net.Conn) {
		wf.connsTotal.Inc()
		wf.handleConn(conn)
	})
}

// closeWire tears down the wire front: listeners, live connections (the
// backend side of spliced streams among them), idle backend pools. Called
// from Proxy.Close.
func (p *Proxy) closeWire() {
	// Through the Once, so this read is ordered after a concurrent
	// ServeWire's initialisation; a front never built stays nil for good.
	p.wireOnce.Do(func() {})
	wf := p.wire
	if wf == nil {
		return
	}
	wf.conns.Close()
	for _, wp := range wf.pools {
		wp.drain()
	}
}

// handleConn speaks the wire protocol with one client: handshake, then
// batch frames routed with failover, or one subscribe stream spliced
// through to its home backend.
func (wf *wireFront) handleConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	write := func(typ byte, payload []byte) error {
		if err := wire.WriteFrame(bw, typ, payload); err != nil {
			return err
		}
		return bw.Flush()
	}
	fail := func(code int, msg string) {
		_ = write(wire.FrameError, wire.AppendError(nil, wire.ErrorFrame{Code: code, Message: msg}))
	}
	// One inbound and one reply buffer serve the whole connection: decoding
	// copies what it keeps, and a reply is written before the next is built.
	var rbuf, out []byte
	read := func() (wire.Frame, bool) {
		f, err := wire.ReadFrame(br, wire.DefaultMaxPayload, &rbuf)
		if err != nil && !errors.Is(err, io.EOF) {
			fail(http.StatusBadRequest, err.Error())
		}
		return f, err == nil
	}

	f, ok := read()
	if !ok {
		return
	}
	if f.Type != wire.FrameHello {
		fail(http.StatusBadRequest, "wire: expected Hello")
		return
	}
	hello, err := wire.DecodeHello(f.Payload)
	if err != nil {
		fail(http.StatusBadRequest, err.Error())
		return
	}
	if hello.Version != wire.ProtocolVersion {
		fail(http.StatusHTTPVersionNotSupported, wire.ErrVersion.Error())
		return
	}
	if err := write(wire.FrameHelloAck, wire.AppendHello(nil, wire.Hello{
		Version: wire.ProtocolVersion, Features: wire.FeatureBatch | wire.FeatureSubscribe,
	})); err != nil {
		return
	}

	for {
		f, ok := read()
		if !ok {
			return
		}
		switch f.Type {
		case wire.FramePredictBatch:
			reqs, err := wire.DecodePredictBatch(f.Payload)
			if err != nil {
				fail(http.StatusBadRequest, err.Error())
				return
			}
			wf.batches.Inc()
			out = wire.AppendPredictReplies(out[:0], wf.routeBatch(reqs))
			if err := write(wire.FramePredictReply, out); err != nil {
				return
			}

		case wire.FrameSubscribe:
			sub, err := wire.DecodeSubscribe(f.Payload)
			if err != nil {
				fail(http.StatusBadRequest, err.Error())
				return
			}
			// The stream takes over the connection; splice returns when
			// either side closes.
			wf.splice(conn, br, sub, fail)
			return

		default:
			fail(http.StatusBadRequest, "wire: unexpected frame type")
			return
		}
	}
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
	p := wf.p
	// Admission control shares the pool-wide in-flight bound with HTTP.
	if p.totalInflight.Load() >= int64(p.cfg.MaxInflight) {
		p.shed.Inc()
		return errReplies(reqs, http.StatusTooManyRequests, "proxy: pool saturated")
	}
	mixed := false
	for _, r := range reqs {
		if r.RequestID == "" {
			r.RequestID = obs.NewRequestID()
		}
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

// forwardGroup sends one same-environment slice of a batch along its
// candidate backends. A conclusive answer (any non-retryable item) stops
// the walk; a transport error or an all-shed reply tries the next
// candidate after the usual backoff. Transport failures feed the health
// state machine exactly like HTTP forward failures.
func (wf *wireFront) forwardGroup(key string, group []*serve.Request) []wire.Reply {
	p := wf.p
	t0 := time.Now()
	rootID := obs.NewSpanID()
	traceID := strings.Clone(group[0].RequestID) // a kept trace outlives the frame
	var spans []obs.Span
	attempts := 0
	// finish closes the group's trace. The tail-sampling decision comes
	// first: only a kept trace builds its root span and turns the backend
	// spans, which the replies carry as bytes, into a tree.
	finish := func(outcome, errMsg string, got []wire.Reply) {
		dur := obs.MS(time.Since(t0))
		switch outcome {
		case obs.OutcomeServed:
			p.latServed.ObserveExemplar(dur, traceID)
		case obs.OutcomeShed:
			p.latShed.ObserveExemplar(dur, traceID)
		default:
			p.latFailed.ObserveExemplar(dur, traceID)
		}
		t := obs.Trace{
			TraceID: traceID, Root: "proxy.request", Outcome: outcome, Retried: attempts > 1,
			StartUnixUS: t0.UnixMicro(), DurationMS: dur,
		}
		if !p.traces.Sample(&t) {
			return
		}
		root := obs.Span{
			TraceID: traceID, SpanID: rootID, Name: t.Root,
			StartUnixUS: t.StartUnixUS, DurationMS: dur,
		}
		root.SetAttr("outcome", outcome)
		root.SetAttr("path", "wire:batch")
		root.SetAttr("batch_size", strconv.Itoa(len(group)))
		if errMsg != "" {
			root.SetAttr("error", errMsg)
		}
		t.Spans = append(append(t.Spans, root), spans...)
		for i := range got {
			t.Spans = append(t.Spans, got[i].Spans()...)
		}
		p.traces.Store(t)
	}
	giveUp := func(outcome string, code int, msg string) []wire.Reply {
		p.failed.Inc()
		wf.relayErrs.Inc()
		finish(outcome, msg, nil)
		return errReplies(group, code, msg)
	}

	candidates := p.route(key)
	n := 0
	for _, b := range candidates {
		if b.wireAddr != "" {
			candidates[n] = b
			n++
		}
	}
	candidates = candidates[:n]
	if len(candidates) == 0 {
		return giveUp(obs.OutcomeFailed, http.StatusServiceUnavailable, "proxy: no live wire backends")
	}

	backoff := p.cfg.RetryBackoff
	var lastErr error
	allShed := false
	for i, b := range candidates {
		waited := time.Duration(0)
		if i > 0 {
			p.retries.Inc()
			waited = backoff
			time.Sleep(backoff)
			p.backoffWait.Observe(obs.MS(waited))
			backoff *= 2
		}
		attempts++
		span := obs.Span{TraceID: traceID, SpanID: obs.NewSpanID(), ParentID: rootID, Name: "proxy.attempt"}
		span.SetAttr("backend", b.name)
		span.SetAttr("attempt", strconv.Itoa(attempts))
		if waited > 0 {
			span.SetAttr("backoff_wait_ms", strconv.FormatFloat(obs.MS(waited), 'g', -1, 64))
		}
		// Backend spans parent onto this attempt, as on the HTTP path.
		for _, r := range group {
			r.TraceParent = obs.FormatTraceParent(r.RequestID, span.SpanID)
		}
		aStart := time.Now()
		span.StartUnixUS = aStart.UnixMicro()
		got, err := wf.attemptWire(b, group)
		span.DurationMS = obs.MS(time.Since(aStart))
		if err != nil {
			span.SetAttr("outcome", "failed")
			span.SetAttr("error", err.Error())
			spans = append(spans, span)
			p.attemptErr.Observe(span.DurationMS)
			b.failed.Inc()
			p.health.reportFailure(b)
			lastErr = err
			p.log.Debug("wire forward failed, failing over", "backend", b.name, "err", err)
			continue
		}
		p.attemptOK.Observe(span.DurationMS)
		b.latency.ObserveExemplar(span.DurationMS, traceID)
		allShed = true
		for k := range got {
			if !retryableStatus(got[k].Status) {
				allShed = false
				break
			}
		}
		if allShed {
			// The whole slice bounced (queue full, no model) — the next
			// candidate might hold it, same spill the HTTP path does on 429.
			span.SetAttr("outcome", "shed")
			spans = append(spans, span)
			p.log.Debug("wire backend refused batch, failing over", "backend", b.name)
			continue
		}
		if i > 0 {
			p.failovers.Inc()
			span.SetAttr("outcome", "failover")
		} else {
			span.SetAttr("outcome", "served")
		}
		spans = append(spans, span)
		served := 0
		for k := range got {
			if got[k].Status < 300 {
				served++
				// The sticky map outlives the reply frame the id sub-slices.
				p.rememberSticky(strings.Clone(got[k].RequestID), b)
			}
		}
		if served > 0 {
			p.served.Inc()
			b.served.Inc()
			finish(obs.OutcomeServed, "", got)
		} else {
			p.failed.Inc()
			finish(obs.OutcomeFailed, "no item in batch served", got)
		}
		return got
	}

	if allShed {
		p.shed.Inc()
		return giveUp(obs.OutcomeShed, http.StatusTooManyRequests, "proxy: fleet saturated")
	}
	msg := "proxy: all candidates unreachable"
	if lastErr != nil {
		msg += ": " + lastErr.Error()
	}
	return giveUp(obs.OutcomeFailed, http.StatusBadGateway, msg)
}

// attemptWire runs one batch against one backend over a pooled client.
// Transport errors discard the client; protocol-level remote errors are
// surfaced as errors too (the connection state is unknown, drop it).
func (wf *wireFront) attemptWire(b *Backend, group []*serve.Request) ([]wire.Reply, error) {
	p := wf.p
	wp := wf.pools[b.wireAddr]
	if wp == nil {
		return nil, fmt.Errorf("proxy: no wire pool for %s", b.name)
	}
	b.inflight.Add(1)
	p.totalInflight.Add(1)
	defer func() {
		b.inflight.Add(-1)
		p.totalInflight.Add(-1)
	}()
	c, err := wp.get()
	if err != nil {
		return nil, err
	}
	replies, err := c.Predict(group)
	if err != nil {
		c.Close()
		return nil, err
	}
	wp.put(c)
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
func (wf *wireFront) splice(client net.Conn, br *bufio.Reader, sub wire.Subscribe, fail func(code int, msg string)) {
	p := wf.p
	key := sub.Env.String()
	candidates := p.route(key)
	var backendConn net.Conn
	var backendBR *bufio.Reader
	var picked *Backend
	for _, b := range candidates {
		if b.wireAddr == "" {
			continue
		}
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
		wf.relayErrs.Inc()
		fail(http.StatusServiceUnavailable, "proxy: no live wire backends")
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

	// Join the connections. backendBR holds the backend's SubscribeAck
	// (already relayed? no — dialSubscribe leaves it buffered) plus any
	// early predictions; br may hold pipelined windows the client sent
	// before our ack. Both buffered remainders must flow first.
	done := make(chan struct{}, 2)
	go func() {
		// client → backend: anything the client buffered, then the raw conn.
		_, _ = io.Copy(backendConn, io.MultiReader(br, client))
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

// dialSubscribe opens a raw wire connection to b, performs the handshake,
// and forwards sub. The backend's answer (SubscribeAck or FrameError) is
// left buffered in the returned reader for the splice to relay verbatim.
func (wf *wireFront) dialSubscribe(b *Backend, sub wire.Subscribe) (net.Conn, *bufio.Reader, error) {
	p := wf.p
	d := net.Dialer{Timeout: 5 * time.Second}
	conn, err := d.Dial("tcp", b.wireAddr)
	if err != nil {
		return nil, nil, err
	}
	brd := bufio.NewReaderSize(conn, 64<<10)
	// Handshake under a deadline so a wedged backend cannot park the
	// subscriber forever; cleared before the splice.
	_ = conn.SetDeadline(time.Now().Add(p.cfg.Timeout))
	if _, err := conn.Write(wire.AppendFrame(nil, wire.FrameHello, wire.AppendHello(nil, wire.Hello{Version: wire.ProtocolVersion}))); err != nil {
		conn.Close()
		return nil, nil, err
	}
	f, err := wire.ReadFrame(brd, wire.DefaultMaxPayload, nil)
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	if f.Type != wire.FrameHelloAck {
		conn.Close()
		return nil, nil, fmt.Errorf("proxy: backend %s refused wire handshake", b.name)
	}
	if _, err := conn.Write(wire.AppendFrame(nil, wire.FrameSubscribe, wire.AppendSubscribe(nil, sub))); err != nil {
		conn.Close()
		return nil, nil, err
	}
	// Peek one byte of the answer so a dead backend fails the candidate
	// walk here, not after the splice started.
	if _, err := brd.Peek(1); err != nil {
		conn.Close()
		return nil, nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, brd, nil
}
