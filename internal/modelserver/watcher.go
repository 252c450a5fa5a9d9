package modelserver

import (
	"context"
	"fmt"
	"sync"
	"time"

	"env2vec/internal/nn"
	"env2vec/internal/obs"
)

// Watcher polls a model registry for new versions of one model and invokes
// OnUpdate for each version it has not yet delivered. It is the reload
// signal of workflow step (5) turned into a long-lived subscription: the
// serving daemon keeps a Watcher running so retrains published by the
// training pipeline reach the online predictor without a restart.
//
// Polls use the registry's version short-circuit (If-None-Match), so an
// unchanged model costs only a header exchange. A Watcher follows one
// model; Replica is the whole-registry analogue built on the same ETag
// machinery (GET /versions, the name → latest-version map), and a Watcher
// may point at a replica instead of the primary to spread poll load.
type Watcher struct {
	Client   *Client
	Name     string
	Interval time.Duration // polling period; Run defaults to 10s when 0
	// LongPoll, when positive, turns each poll into a server-side long-poll
	// (?wait=LongPoll on the latest endpoint): an up-to-date watcher parks
	// on the registry until the next publish, so reloads land in O(RTT)
	// instead of O(Interval). Old registries ignore ?wait; Run detects the
	// instant 304s and falls back to Interval pacing. The client's HTTP
	// timeout must exceed LongPoll.
	LongPoll time.Duration
	// OnUpdate receives each newly observed snapshot. It is called from the
	// polling goroutine (or the Poll caller), never concurrently with itself.
	OnUpdate func(snap *nn.Snapshot, version int)
	// OnError, when non-nil, receives transient polling errors (registry
	// unreachable, model not yet published). Run keeps polling afterwards.
	OnError func(err error)

	mu      sync.Mutex
	version int

	m struct {
		polls, reloads, notModified, errors *obs.Counter // nil (no-op) unless Instrument was called
	}
}

// Instrument registers the watcher's counters in reg and returns the
// watcher for chaining: polls, reloads delivered, 304-style unchanged
// polls, and transient errors. On the serving daemon these share the
// /metrics page with the serve metrics, so one scrape shows both halves of
// the publish-then-serve loop.
func (w *Watcher) Instrument(reg *obs.Registry) *Watcher {
	w.m.polls = reg.Counter("modelserver_watcher_polls_total", "Registry polls attempted.", nil)
	w.m.reloads = reg.Counter("modelserver_watcher_reloads_total", "New versions delivered to OnUpdate.", nil)
	w.m.notModified = reg.Counter("modelserver_watcher_not_modified_total", "Polls answered unchanged (ETag 304 path).", nil)
	w.m.errors = reg.Counter("modelserver_watcher_errors_total", "Polls that failed transiently.", nil)
	return w
}

// Poll performs one registry check, invoking OnUpdate when a version newer
// than the last delivered one is available. It reports whether an update was
// delivered. A registry with no versions of the model yet is an error (the
// caller decides whether that is fatal; Run treats it as transient).
func (w *Watcher) Poll() (bool, error) {
	if w.Client == nil || w.Name == "" {
		return false, fmt.Errorf("modelserver: watcher needs a client and a model name")
	}
	w.mu.Lock()
	have := w.version
	w.mu.Unlock()
	w.m.polls.Inc()
	snap, ver, changed, err := w.Client.FetchLatestIfNewerWait(w.Name, have, w.LongPoll)
	if err != nil {
		w.m.errors.Inc()
		return false, err
	}
	if !changed || ver == have {
		w.m.notModified.Inc()
		return false, nil
	}
	if w.OnUpdate != nil {
		w.OnUpdate(snap, ver)
	}
	w.mu.Lock()
	w.version = ver
	w.mu.Unlock()
	w.m.reloads.Inc()
	return true, nil
}

// Run polls until ctx is cancelled, starting with an immediate poll. With
// LongPoll set, polls park server-side and re-arm back-to-back; see
// runLoop for the old-server fallback.
func (w *Watcher) Run(ctx context.Context) {
	interval := w.Interval
	if interval <= 0 {
		interval = 10 * time.Second
	}
	runLoop(ctx, interval, w.LongPoll, func() (bool, error) {
		updated, err := w.Poll()
		if err != nil && w.OnError != nil {
			w.OnError(err)
		}
		return updated, err
	})
}
