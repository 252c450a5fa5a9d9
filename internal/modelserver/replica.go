package modelserver

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"env2vec/internal/obs"
)

// Replica keeps a local registry converged with a primary registry's
// contents: each Sync polls the primary's GET /versions (the name →
// latest-version map, with the same If-None-Match short-circuit Watcher
// uses, so an idle primary costs a header exchange) and pulls any versions
// the local registry is missing, in publish order, preserving their
// numbers. Many read-only replicas can front one primary so the serving
// fleet's Watcher polls never converge on a single hot registry; the local
// registry may itself be durable (OpenRegistry WithDir), giving replicas
// warm restarts. A closed local registry fails each import with ErrClosed,
// which Run hands to OnError.
//
// Replicas are read-only by convention: publishing locally to a replica
// desynchronizes its version numbering from the primary and will make
// subsequent imports fail with a gap error.
type Replica struct {
	Client   *Client
	Registry *Registry
	Interval time.Duration // polling period; Run defaults to 10s when 0
	// LongPoll, when positive, makes each versions poll a server-side
	// long-poll (?wait=LongPoll): an in-sync replica's request parks on the
	// primary until a publish lands, so new versions replicate in O(RTT)
	// instead of O(Interval). Run then re-polls immediately after a
	// long-poll completes. Against a primary that predates ?wait the poll
	// returns instantly unchanged; Run detects that and falls back to
	// plain Interval pacing. The client's HTTP timeout must exceed
	// LongPoll.
	LongPoll time.Duration
	// OnSync, when non-nil, is called after every successful sync with the
	// number of versions pulled (possibly 0). Serving daemons use it to
	// hot-reload from the local registry the moment new versions land.
	OnSync func(pulled int)
	// OnError, when non-nil, receives transient sync errors. Run keeps
	// polling afterwards; a partially pulled sync resumes where it stopped
	// because the versions ETag is only advanced after a complete pass.
	OnError func(err error)

	mu   sync.Mutex
	etag string

	m struct {
		syncs, pulls, notModified, errors *obs.Counter // nil (no-op) unless Instrument was called
	}
}

// Instrument registers the replica's counters in reg and returns the
// replica for chaining: sync passes, versions pulled, 304-style unchanged
// polls, and transient errors.
func (rp *Replica) Instrument(reg *obs.Registry) *Replica {
	rp.m.syncs = reg.Counter("modelserver_replica_syncs_total", "Replica sync passes attempted.", nil)
	rp.m.pulls = reg.Counter("modelserver_replica_pulls_total", "Versions pulled from the primary.", nil)
	rp.m.notModified = reg.Counter("modelserver_replica_not_modified_total", "Syncs answered unchanged (versions ETag 304 path).", nil)
	rp.m.errors = reg.Counter("modelserver_replica_errors_total", "Syncs that failed transiently.", nil)
	return rp
}

// Sync performs one convergence pass and reports how many versions it
// pulled. Versions are fetched oldest-first per model, so an interrupted
// pass leaves the local registry gap-free and a later pass resumes cleanly.
func (rp *Replica) Sync() (pulled int, err error) {
	if rp.Client == nil || rp.Registry == nil {
		return 0, fmt.Errorf("modelserver: replica needs a client and a local registry")
	}
	rp.m.syncs.Inc()
	rp.mu.Lock()
	have := rp.etag
	rp.mu.Unlock()
	remote, etag, changed, err := rp.Client.FetchVersions(have, rp.LongPoll)
	if err != nil {
		rp.m.errors.Inc()
		return 0, err
	}
	if !changed {
		rp.m.notModified.Inc()
		if rp.OnSync != nil {
			rp.OnSync(0)
		}
		return 0, nil
	}
	names := make([]string, 0, len(remote))
	for name := range remote {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic pull order for tests and logs
	local := rp.Registry.latestNumbers()
	for _, name := range names {
		for n := local[name] + 1; n <= remote[name]; n++ {
			v, err := rp.Client.FetchVersion(name, n)
			if err != nil {
				rp.m.errors.Inc()
				return pulled, err
			}
			imported, err := rp.Registry.importVersion(v)
			if err != nil {
				rp.m.errors.Inc()
				return pulled, err
			}
			if imported {
				pulled++
				rp.m.pulls.Inc()
			}
		}
	}
	// Only remember the map as seen once every version in it is local;
	// a failed pass retries from the same vantage point.
	rp.mu.Lock()
	rp.etag = etag
	rp.mu.Unlock()
	if rp.OnSync != nil {
		rp.OnSync(pulled)
	}
	return pulled, nil
}

// Run syncs until ctx is cancelled, starting with an immediate pass. With
// LongPoll set it loops back-to-back — each poll blocks server-side until
// something changes — and drops to Interval pacing only when the server
// ignores ?wait (pre-long-poll primary) or errors, so it never hot-spins.
func (rp *Replica) Run(ctx context.Context) {
	interval := rp.Interval
	if interval <= 0 {
		interval = 10 * time.Second
	}
	runLoop(ctx, interval, rp.LongPoll, func() (bool, error) {
		pulled, err := rp.Sync()
		if err != nil && rp.OnError != nil {
			rp.OnError(err)
		}
		return pulled > 0, err
	})
}

// runLoop is the shared pacing loop of Replica.Run and Watcher.Run: plain
// ticker polling when longPoll is zero; otherwise immediate re-poll after
// each pass that either did work (keep draining a burst in O(RTT)) or
// parked server-side for a while (the long-poll was honoured). A pass that
// comes back fast with nothing — an old server ignoring ?wait — or fails
// drops to one interval of sleep, so the loop never hot-spins.
func runLoop(ctx context.Context, interval, longPoll time.Duration, pass func() (worked bool, err error)) {
	sleep := func(d time.Duration) bool {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return false
		case <-t.C:
			return true
		}
	}
	for {
		start := time.Now()
		worked, err := pass()
		if ctx.Err() != nil {
			return
		}
		if longPoll > 0 && err == nil && (worked || time.Since(start) >= longPoll/2) {
			continue // re-arm the long-poll immediately
		}
		if !sleep(interval) {
			return
		}
	}
}
