package proxy

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"env2vec/internal/obs"
)

// tryFunc carries one forwarded unit to one backend over the caller's
// transport and reports the backend's status, or a transport error.
// attemptSpanID is the span the backend's own spans must parent onto (the
// transport stamps it into the traceparent); empty outside a traced forward.
type tryFunc func(b *Backend, attemptSpanID string) (status int, err error)

// attemptRec is what one forward try leaves behind. It becomes a
// proxy.attempt span only if the trace is kept.
type attemptRec struct {
	b           *Backend
	spanID      string
	start       time.Time
	dur, waited time.Duration
	status      int
	err         error
}

// forward is the forwarding core both fronts run: one unit — a JSON
// request, or one environment group of a wire frame (batch windows of it) —
// is admitted against the pool-wide in-flight bound, walks its ring
// candidates with the retry budget and exponential backoff, and stops at the
// first conclusive answer. A transport error marks the backend suspect and
// moves on; so does a retryable status (429: its queue is full, spill
// clockwise; 502/503/504: it is up but cannot serve, the next one might).
//
// served is the backend whose answer (code its status, msg empty) the
// adapter relays; nil means the proxy answers for itself with code and msg:
//
//	pool saturated                  429 proxy: pool saturated
//	no live backend                 503 proxy: no live backends
//	last refusal was a 429          429 proxy: fleet saturated
//	last refusal was 502/503/504    503 proxy: all candidates refused (last status N)
//	every candidate unreachable     502 proxy: all candidates unreachable: …
//
// Every unit counts under exactly one outcome and leaves one latency sample.
// The tail-sampling decision comes before any span exists: only a kept trace
// builds its proxy.request root, one proxy.attempt per try, and — through
// stitch, on a conclusive answer — the backend's own spans.
func (p *Proxy) forward(key, path, traceID string, batch int, try tryFunc, stitch func(dst []obs.Span) []obs.Span) (served *Backend, code int, msg string) {
	t0 := time.Now()
	var recs [2]attemptRec // a unit rarely needs more than its home and one spill
	atts := recs[:0]
	saturated := p.totalInflight.Load() >= int64(p.cfg.MaxInflight)
	var candidates []*Backend
	if !saturated {
		candidates = p.route(key)
	}
	backoff := p.cfg.RetryBackoff
	lastStatus := 0
	var lastErr error
	for i, b := range candidates {
		a := attemptRec{b: b, spanID: obs.NewSpanID()}
		if i > 0 {
			p.retries.Inc()
			a.waited = backoff
			time.Sleep(backoff)
			p.backoffWait.Observe(obs.MS(backoff))
			backoff *= 2
		}
		a.start = time.Now()
		a.status, a.dur, a.err = p.attempt(b, traceID, a.spanID, try)
		switch {
		case a.err != nil:
			// The health state machine hears of it now, so the ring converges
			// faster than the next probe tick.
			p.health.reportFailure(b)
			lastErr = a.err
		case retryableStatus(a.status):
			lastStatus = a.status
		default:
			served, code = b, a.status
			if i > 0 {
				p.failovers.Inc()
			}
		}
		atts = append(atts, a)
		if served != nil {
			break
		}
		p.log.Debug("forward attempt failed, failing over", "backend", b.name, "path", path, "status", a.status, "err", a.err)
	}

	outcome := obs.OutcomeFailed
	switch {
	case served != nil && code < 300:
		outcome = obs.OutcomeServed
		served.served.Inc()
	case served != nil:
		// A conclusive non-2xx: the backend's answer is relayed as it is.
	case saturated:
		outcome, code, msg = obs.OutcomeShed, http.StatusTooManyRequests, "proxy: pool saturated"
	case len(candidates) == 0:
		code, msg = http.StatusServiceUnavailable, "proxy: no live backends"
	case lastStatus == http.StatusTooManyRequests:
		outcome, code, msg = obs.OutcomeShed, http.StatusTooManyRequests, "proxy: fleet saturated"
	case lastStatus != 0:
		code, msg = http.StatusServiceUnavailable, fmt.Sprintf("proxy: all candidates refused (last status %d)", lastStatus)
	default:
		code, msg = http.StatusBadGateway, "proxy: all candidates unreachable: "+lastErr.Error()
	}

	dur := obs.MS(time.Since(t0))
	switch outcome {
	case obs.OutcomeServed:
		p.served.Inc()
		p.latServed.ObserveExemplar(dur, traceID)
	case obs.OutcomeShed:
		p.shed.Inc()
		p.latShed.ObserveExemplar(dur, traceID)
	default:
		p.failed.Inc()
		p.latFailed.ObserveExemplar(dur, traceID)
	}
	t := obs.Trace{
		TraceID: traceID, Root: "proxy.request", Outcome: outcome, Retried: len(atts) > 1,
		StartUnixUS: t0.UnixMicro(), DurationMS: dur,
	}
	if !p.traces.Sample(&t) {
		return served, code, msg
	}
	// A kept trace outlives the request: on the wire front its id sub-slices
	// the decoded frame.
	traceID = strings.Clone(traceID)
	t.TraceID = traceID
	root := obs.Span{
		TraceID: traceID, SpanID: obs.NewSpanID(), Name: t.Root,
		StartUnixUS: t.StartUnixUS, DurationMS: dur,
	}
	root.SetAttr("outcome", outcome)
	root.SetAttr("path", path)
	if batch > 0 {
		root.SetAttr("batch_size", strconv.Itoa(batch))
	}
	if msg != "" {
		root.SetAttr("error", msg)
	}
	t.Spans = append(t.Spans, root)
	for i := range atts {
		t.Spans = append(t.Spans, atts[i].span(traceID, root.SpanID, i+1))
	}
	if served != nil {
		t.Spans = stitch(t.Spans)
	}
	p.traces.Store(t)
	return served, code, msg
}

// span renders the n-th try of a kept trace.
func (a *attemptRec) span(traceID, rootID string, n int) obs.Span {
	sp := obs.Span{
		TraceID: traceID, SpanID: a.spanID, ParentID: rootID, Name: "proxy.attempt",
		StartUnixUS: a.start.UnixMicro(), DurationMS: obs.MS(a.dur),
	}
	sp.SetAttr("backend", a.b.name)
	sp.SetAttr("attempt", strconv.Itoa(n))
	if a.waited > 0 {
		sp.SetAttr("backoff_wait_ms", strconv.FormatFloat(obs.MS(a.waited), 'g', -1, 64))
	}
	outcome := "served"
	switch {
	case a.err != nil:
		outcome = "failed"
		sp.SetAttr("error", a.err.Error())
	case a.status == http.StatusTooManyRequests:
		outcome = "shed"
	case retryableStatus(a.status):
		outcome = "refused"
	case a.status >= 300:
		outcome = "error" // conclusive client error: relayed, not masked
	case n > 1:
		outcome = "failover"
	}
	sp.SetAttr("outcome", outcome)
	if a.err == nil && a.status >= 300 {
		sp.SetAttr("status", strconv.Itoa(a.status))
	}
	return sp
}

// attempt runs one try against one backend, counted in flight for its
// duration and timed into the attempt-latency and per-backend series. The
// core's candidate walk and POST /observe (one sticky backend, no walk)
// share it.
func (p *Proxy) attempt(b *Backend, traceID, attemptSpanID string, try tryFunc) (status int, took time.Duration, err error) {
	b.inflight.Add(1)
	p.totalInflight.Add(1)
	defer func() {
		b.inflight.Add(-1)
		p.totalInflight.Add(-1)
	}()
	t0 := time.Now()
	status, err = try(b, attemptSpanID)
	took = time.Since(t0)
	if err != nil {
		b.failed.Inc()
		p.attemptErr.Observe(obs.MS(took))
		return 0, took, err
	}
	p.attemptOK.Observe(obs.MS(took))
	b.latency.ObserveExemplar(obs.MS(took), traceID)
	return status, took, nil
}

// retryableStatus reports whether a backend status means "try the next
// candidate": overload (429) and transient unavailability (502/503/504).
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}
