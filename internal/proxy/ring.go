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

	"env2vec/internal/envmeta"
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
	idx  int // b's place in the configured list
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
	for idx, b := range backends {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: obs.Hash64(fmt.Sprintf("%s#%d", b.URL, i)), b: b, idx: idx})
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

// envHash is an environment's position on the ring: the hash of its tuple's
// bytes as envmeta.Environment.String renders them, rendered into a stack
// buffer, so a request's placement costs no string.
func envHash(e envmeta.Environment) uint64 {
	var buf [128]byte
	return obs.Hash64(e.Append(buf[:0]))
}

// walk yields the distinct backends for the ring position h in clockwise
// order, stopping early when visit returns false. The first backend yielded
// is the position's home; the rest are its deterministic failover order.
func (r *ring) walk(h uint64, visit func(*Backend) bool) {
	if len(r.points) == 0 {
		return
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	// Which backends were yielded: one bit each, in a word on the stack for
	// any pool up to 64 backends.
	var word [1]uint64
	seen := word[:]
	if r.n > 64 {
		seen = make([]uint64, (r.n+63)/64)
	}
	for i, yielded := 0, 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if w, bit := p.idx/64, uint64(1)<<(p.idx%64); seen[w]&bit == 0 {
			seen[w] |= bit
			if yielded++; !visit(p.b) || yielded == r.n {
				return
			}
		}
	}
}

// order appends the full preference order for the ring position h to dst:
// its home backend first, then each successive failover target.
func (r *ring) order(dst []*Backend, h uint64) []*Backend {
	r.walk(h, func(b *Backend) bool {
		dst = append(dst, b)
		return true
	})
	return dst
}
