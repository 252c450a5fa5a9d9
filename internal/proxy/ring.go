// Package proxy is the environment-affinity front tier of the serving
// fleet: it consistent-hashes each request's environment tuple
// <Testbed,SUT,Testcase,Build> onto a pool of e2vserve backends so every
// instance sees a stable slice of environments — keeping its per-env
// quality drift state and its micro-batches coherent — fails over with a
// bounded retry budget when a backend dies, sheds load with 429 when the
// whole pool is saturated, and aggregates the fleet's /metrics and
// /quality surfaces into single endpoints.
package proxy

import (
	"fmt"
	"sort"

	"env2vec/internal/obs"
)

// ring is an immutable consistent-hash ring over the configured backends:
// every backend owns vnodes points, requests walk clockwise from their
// key's hash. The ring holds *all* configured backends — dead ones are
// skipped at walk time, so a backend's death re-homes exactly the keys it
// owned (to the next distinct backend clockwise) and its rejoin restores
// them, deterministically and without rebuilding anything.
type ring struct {
	points []ringPoint // sorted by hash
	n      int         // distinct backends
}

type ringPoint struct {
	hash uint64
	b    *Backend
}

// newRing places vnodes points per backend. Virtual-node hashes derive
// from the backend URL, so the mapping is a pure function of the
// configuration: every proxy replica with the same backend list routes
// identically.
func newRing(backends []*Backend, vnodes int) *ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	r := &ring{points: make([]ringPoint, 0, len(backends)*vnodes), n: len(backends)}
	for _, b := range backends {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: obs.Hash64(fmt.Sprintf("%s#%d", b.URL, i)), b: b})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].b.URL < r.points[j].b.URL // total order even on hash collisions
	})
	return r
}

// walk yields the distinct backends for key in clockwise ring order,
// stopping early when visit returns false. The first backend yielded is
// the key's home; the rest are its deterministic failover order.
func (r *ring) walk(key string, visit func(*Backend) bool) {
	if len(r.points) == 0 {
		return
	}
	h := obs.Hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[*Backend]bool, r.n)
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.b] {
			continue
		}
		seen[p.b] = true
		if !visit(p.b) {
			return
		}
		if len(seen) == r.n {
			return
		}
	}
}

// order returns the full preference order for key: the key's home backend
// first, then each successive failover target.
func (r *ring) order(key string) []*Backend {
	out := make([]*Backend, 0, r.n)
	r.walk(key, func(b *Backend) bool {
		out = append(out, b)
		return true
	})
	return out
}
