package proxy

import (
	"fmt"
	"testing"

	"env2vec/internal/envmeta"
	"env2vec/internal/obs"
)

func makeBackends(urls ...string) []*Backend {
	bs := make([]*Backend, 0, len(urls))
	for _, u := range urls {
		b := &Backend{URL: u, name: backendName(u)}
		b.alive.Store(true)
		bs = append(bs, b)
	}
	return bs
}

// home returns the ring-home backend for a ring position — the
// deterministic owner when every backend is alive. The request path walks
// the ring directly.
func (p *Proxy) home(h uint64) *Backend {
	var owner *Backend
	p.ring.walk(h, func(b *Backend) bool { owner = b; return false })
	return owner
}

func TestRingDeterministic(t *testing.T) {
	bs := makeBackends("http://a:1", "http://b:1", "http://c:1")
	r1 := newRing(bs, 64)
	r2 := newRing(makeBackends("http://a:1", "http://b:1", "http://c:1"), 64)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("tb%d|fw|load|B%d", i%7, i)
		o1, o2 := r1.order(nil, obs.Hash64(key)), r2.order(nil, obs.Hash64(key))
		if len(o1) != 3 || len(o2) != 3 {
			t.Fatalf("order(%q) incomplete: %d vs %d backends", key, len(o1), len(o2))
		}
		for j := range o1 {
			if o1[j].URL != o2[j].URL {
				t.Fatalf("order(%q)[%d] differs between identical rings: %s vs %s", key, j, o1[j].URL, o2[j].URL)
			}
		}
	}
}

func TestRingCoversAllBackendsOnce(t *testing.T) {
	bs := makeBackends("http://a:1", "http://b:1", "http://c:1", "http://d:1")
	r := newRing(bs, 32)
	order := r.order(nil, obs.Hash64("tb1|fw|load|B1"))
	if len(order) != len(bs) {
		t.Fatalf("order yielded %d backends, want %d", len(order), len(bs))
	}
	seen := map[*Backend]bool{}
	for _, b := range order {
		if seen[b] {
			t.Fatalf("backend %s yielded twice", b.URL)
		}
		seen[b] = true
	}
}

func TestRingBalance(t *testing.T) {
	bs := makeBackends("http://a:1", "http://b:1", "http://c:1")
	r := newRing(bs, 128)
	counts := map[*Backend]int{}
	const keys = 3000
	for i := 0; i < keys; i++ {
		var home *Backend
		r.walk(obs.Hash64(fmt.Sprintf("tb%d|sut%d|tc|B%d", i%11, i%5, i)), func(b *Backend) bool { home = b; return false })
		counts[home]++
	}
	for b, n := range counts {
		frac := float64(n) / keys
		if frac < 0.15 || frac > 0.55 {
			t.Fatalf("backend %s owns %.0f%% of keys — ring badly unbalanced", b.URL, 100*frac)
		}
	}
}

// TestRingRehomingIsMinimal is the property the whole design leans on:
// removing one backend moves only the keys it owned (each to its next
// clockwise neighbour), and its return restores the original map exactly.
func TestRingRehomingIsMinimal(t *testing.T) {
	bs := makeBackends("http://a:1", "http://b:1", "http://c:1")
	r := newRing(bs, 64)
	dead := bs[1]

	homeWith := func(key string, skip *Backend) *Backend {
		var home *Backend
		r.walk(obs.Hash64(key), func(b *Backend) bool {
			if b == skip {
				return true // keep walking, as route() does for !Alive()
			}
			home = b
			return false
		})
		return home
	}

	moved := 0
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("tb%d|fw|load|B%d", i%7, i)
		before := homeWith(key, nil)
		during := homeWith(key, dead)
		after := homeWith(key, nil)
		if before != after {
			t.Fatalf("key %q did not re-home back after rejoin: %s -> %s", key, before.URL, after.URL)
		}
		if before == dead {
			moved++
			if during == dead {
				t.Fatalf("key %q still routed to the dead backend", key)
			}
			// The failover target must be the key's second preference —
			// the deterministic next-clockwise backend.
			if want := r.order(nil, obs.Hash64(key))[1]; during != want {
				t.Fatalf("key %q failed over to %s, want next-clockwise %s", key, during.URL, want.URL)
			}
		} else if during != before {
			t.Fatalf("key %q moved (%s -> %s) though its home never died", key, before.URL, during.URL)
		}
	}
	if moved == 0 {
		t.Fatal("test vacuous: no key homed on the dead backend")
	}
}

// TestRingPlacementPinned: a request's home is the same backend it was when
// the ring hashed envmeta.Environment.String, so changing how the position
// is computed moves no environment. The homes were recorded from that build:
// the benchmark's two backends under the names its fleet gives them, with
// its 24 replayed environments (15 on serve-0, 9 on serve-1), and a full
// three-backend order for tuples whose bytes need escaping somewhere or
// collide once rendered.
func TestRingPlacementPinned(t *testing.T) {
	bench := New(Config{Backends: []string{"http://serve-0.bench", "http://serve-1.bench"}})
	defer bench.Close()
	for _, c := range []struct {
		env  envmeta.Environment
		home int
	}{
		{envmeta.Environment{Testbed: "tb00", SUT: "SUT_A", Testcase: "endurance", Build: "R09"}, 1},
		{envmeta.Environment{Testbed: "tb00", SUT: "SUT_A", Testcase: "soak", Build: "T03"}, 0},
		{envmeta.Environment{Testbed: "tb00", SUT: "SUT_D", Testcase: "soak", Build: "S08"}, 0},
		{envmeta.Environment{Testbed: "tb01", SUT: "SUT_C", Testcase: "soak", Build: "D08"}, 0},
		{envmeta.Environment{Testbed: "tb02", SUT: "SUT_C", Testcase: "endurance", Build: "T08"}, 1},
		{envmeta.Environment{Testbed: "tb02", SUT: "SUT_C", Testcase: "load", Build: "R08"}, 0},
		{envmeta.Environment{Testbed: "tb02", SUT: "SUT_C", Testcase: "soak", Build: "S10"}, 0},
		{envmeta.Environment{Testbed: "tb02", SUT: "SUT_C", Testcase: "volume", Build: "R04"}, 0},
		{envmeta.Environment{Testbed: "tb02", SUT: "SUT_D", Testcase: "regression", Build: "S06"}, 0},
		{envmeta.Environment{Testbed: "tb03", SUT: "SUT_A", Testcase: "volume", Build: "D06"}, 1},
		{envmeta.Environment{Testbed: "tb03", SUT: "SUT_C", Testcase: "soak", Build: "B04"}, 0},
		{envmeta.Environment{Testbed: "tb03", SUT: "SUT_D", Testcase: "load", Build: "B04"}, 0},
		{envmeta.Environment{Testbed: "tb04", SUT: "SUT_A", Testcase: "soak", Build: "B08"}, 0},
		{envmeta.Environment{Testbed: "tb04", SUT: "SUT_A", Testcase: "surge", Build: "D07"}, 1},
		{envmeta.Environment{Testbed: "tb04", SUT: "SUT_B", Testcase: "load", Build: "S10"}, 1},
		{envmeta.Environment{Testbed: "tb04", SUT: "SUT_B", Testcase: "surge", Build: "R06"}, 0},
		{envmeta.Environment{Testbed: "tb04", SUT: "SUT_C", Testcase: "soak", Build: "S10"}, 0},
		{envmeta.Environment{Testbed: "tb04", SUT: "SUT_C", Testcase: "volume", Build: "B08"}, 1},
		{envmeta.Environment{Testbed: "tb05", SUT: "SUT_A", Testcase: "load", Build: "T06"}, 1},
		{envmeta.Environment{Testbed: "tb05", SUT: "SUT_A", Testcase: "volume", Build: "D03"}, 0},
		{envmeta.Environment{Testbed: "tb05", SUT: "SUT_C", Testcase: "volume", Build: "B08"}, 0},
		{envmeta.Environment{Testbed: "tb05", SUT: "SUT_D", Testcase: "soak", Build: "T10"}, 0},
		{envmeta.Environment{Testbed: "tb06", SUT: "SUT_C", Testcase: "volume", Build: "T07"}, 1},
		{envmeta.Environment{Testbed: "tb07", SUT: "SUT_B", Testcase: "surge", Build: "R05"}, 1},
	} {
		if got, want := bench.home(envHash(c.env)), bench.backends[c.home]; got != want {
			t.Errorf("%v homes on %s, was %s", c.env, got.URL, want.URL)
		}
	}

	three := New(Config{Backends: []string{"http://a:1", "http://b:1", "http://c:1"}})
	defer three.Close()
	for _, c := range []struct {
		env       envmeta.Environment
		benchHome int
		order     string
	}{
		{envmeta.Environment{}, 1, "cba"},
		{envmeta.Environment{Testbed: "tb1", SUT: "fw", Testcase: "load", Build: "B1"}, 1, "acb"},
		{envmeta.Environment{Testbed: "a,b", SUT: "c", Testcase: "d", Build: "e"}, 1, "bca"},
		{envmeta.Environment{Testbed: "a", SUT: "b,c", Testcase: "d", Build: "e"}, 1, "bca"},
		{envmeta.Environment{Testbed: "<tb>", SUT: "S&P", Testcase: `"q"`, Build: "\x00\x1f"}, 0, "abc"},
		{envmeta.Environment{Testbed: "tbé", SUT: "SUT—Ω", Testcase: "load\u2028", Build: "\xff\xfe"}, 1, "abc"},
	} {
		if got, want := bench.home(envHash(c.env)), bench.backends[c.benchHome]; got != want {
			t.Errorf("%q homes on %s, was %s", c.env.String(), got.URL, want.URL)
		}
		order := ""
		for _, b := range three.ring.order(nil, envHash(c.env)) {
			order += b.URL[len("http://") : len("http://")+1]
		}
		if order != c.order {
			t.Errorf("%q walks %s, was %s", c.env.String(), order, c.order)
		}
	}
}
