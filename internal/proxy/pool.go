package proxy

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"env2vec/internal/obs"
	"env2vec/internal/wire"
)

// Backend is one e2vserve instance in the pool. Aliveness is owned by the
// health checker (plus passive marks from failed forwards); in-flight
// counts feed the bounded-load walk.
type Backend struct {
	URL      string            // base URL, no trailing slash
	name     string            // host:port, the value of the backend metric label
	wireAddr string            // binary-protocol listener (host:port); "" = HTTP only
	idle     chan *wire.Client // idle wire clients to it, kept for reuse

	alive    atomic.Bool
	inflight atomic.Int64

	// Health state machine, guarded by mu: consecutive probe outcomes
	// hysteresis so one flaky probe doesn't flap the ring.
	mu    sync.Mutex
	fails int
	rises int

	latency                *obs.Histogram
	served, failed, probes *obs.Counter
}

// Name returns the backend's metric label (host:port of its URL).
func (b *Backend) Name() string { return b.name }

// Alive reports whether the health checker currently considers the
// backend routable.
func (b *Backend) Alive() bool { return b.alive.Load() }

// Inflight returns the requests currently being forwarded to the backend.
func (b *Backend) Inflight() int64 { return b.inflight.Load() }

func backendName(url string) string {
	s := url
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	return strings.TrimRight(s, "/")
}

// health drives the liveness state of every backend: a periodic probe of
// GET /readyz with FailAfter/RiseAfter hysteresis. Forward errors
// report into the same state machine, so a crashed backend usually leaves
// the ring on the first failed request, not the next probe tick.
type health struct {
	backends []*Backend
	client   *http.Client
	interval time.Duration
	fail     int
	rise     int
	onChange func(b *Backend, alive bool)

	transitions *obs.Counter
}

// probe runs one health pass over every backend, concurrently.
func (h *health) probe(ctx context.Context) {
	var wg sync.WaitGroup
	for _, b := range h.backends {
		wg.Add(1)
		go func(b *Backend) {
			defer wg.Done()
			h.probeOne(ctx, b)
		}(b)
	}
	wg.Wait()
}

func (h *health) probeOne(ctx context.Context, b *Backend) {
	b.probes.Inc()
	if h.ready(ctx, b) {
		h.reportSuccess(b)
	} else {
		h.reportFailure(b)
	}
}

// ready asks the backend whether it can take traffic: GET /readyz answers
// 200. Anything else — 503, 404, no answer — keeps it out of rotation.
func (h *health) ready(ctx context.Context, b *Backend) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.URL+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// reportSuccess records a healthy signal; RiseAfter consecutive successes
// bring a dead backend back (and its environment slice with it).
func (h *health) reportSuccess(b *Backend) {
	b.mu.Lock()
	b.fails = 0
	b.rises++
	flip := !b.alive.Load() && b.rises >= h.rise
	if flip {
		b.alive.Store(true)
	}
	b.mu.Unlock()
	if flip {
		h.transitions.Inc()
		if h.onChange != nil {
			h.onChange(b, true)
		}
	}
}

// reportFailure records an unhealthy signal (probe or forward failure);
// FailAfter consecutive failures take the backend out of rotation.
func (h *health) reportFailure(b *Backend) {
	b.mu.Lock()
	b.rises = 0
	b.fails++
	flip := b.alive.Load() && b.fails >= h.fail
	if flip {
		b.alive.Store(false)
	}
	b.mu.Unlock()
	if flip {
		h.transitions.Inc()
		if h.onChange != nil {
			h.onChange(b, false)
		}
	}
}

// run probes until ctx is cancelled, starting with an immediate pass so
// the proxy converges on real aliveness within one interval of boot.
func (h *health) run(ctx context.Context) {
	h.probe(ctx)
	ticker := time.NewTicker(h.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			h.probe(ctx)
		}
	}
}
