package serve

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// Size returns how many entries are held (not yet taken or evicted) and how
// many order slots exist for them; neither exceeds the bound.
func (m *IDMap[V]) Size() (entries, slots int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.live, len(m.ring)
}

// TestIDMapStaysBoundedWhenObserved pins the bug the ring replaced: the
// hand-written maps deleted a taken id from the map but never from their
// order slice, and evicted only while the map itself was full — so in the
// closed loop /observe exists for, where predictions are taken promptly, the
// map stayed small, eviction never ran, and the order slice (with every id
// and every id chunk behind it) grew by one per request for ever.
func TestIDMapStaysBoundedWhenObserved(t *testing.T) {
	const bound = 16
	m := NewIDMap[int](bound)
	for i := 0; i < 5000; i++ {
		id := fmt.Sprintf("%016x", i)
		m.Put(id, i)
		if v, ok := m.Take(id); !ok || v != i {
			t.Fatalf("insert %d: took %d, %v", i, v, ok)
		}
	}
	if entries, slots := m.Size(); entries != 0 || slots > bound {
		t.Fatalf("after 5000 observed predictions: %d entries, %d order slots, bound %d", entries, slots, bound)
	}
}

// TestIDMapEvictsOldestInsert: the bound counts inserts, oldest out first;
// a taken id is gone, a re-inserted one lives as long as its newest insert,
// and the last write for an id wins.
func TestIDMapEvictsOldestInsert(t *testing.T) {
	const bound = 4
	m := NewIDMap[string](bound)
	put := func(ids ...string) {
		m.PutAll(len(ids), func(i int) (string, string, bool) { return ids[i], "v-" + ids[i], ids[i] != "skipped" })
	}
	has := func(id string) bool { _, ok := m.Take(id); return ok }

	put("a", "b", "skipped", "c", "d")
	if has("skipped") {
		t.Fatal("PutAll inserted an entry its callback skipped")
	}
	put("e") // wraps onto a's slot
	if has("a") {
		t.Fatal("oldest id survived the insert that wrapped onto its slot")
	}
	if !has("b") || has("b") {
		t.Fatal("an id is taken exactly once")
	}

	// b's slot is next; b was taken and re-inserted since, so the wrap must
	// not evict the newer entry, which lives until its own slot comes round.
	m.Put("b", "again") // lands on b's own old slot: the ring is e b c d, c's turn next
	m.Put("b", "last")  // lands on c's slot, evicting c
	if has("c") {
		t.Fatal("c survived the insert that wrapped onto its slot")
	}
	put("f") // d's slot
	put("g") // e's slot
	put("h") // the slot of b's first re-insert: that insert no longer owns b
	if v, ok := m.Take("b"); !ok || v != "last" {
		t.Fatalf("re-inserted id: took %q, %v; want the last write, still held", v, ok)
	}
	m.Put("b", "once more") // lands on the slot of the insert just taken
	put("i", "j", "k", "l") // a full turn of the ring
	if has("b") {
		t.Fatal("re-inserted id outlived a full turn of the ring")
	}
	if entries, slots := m.Size(); entries > bound || slots != bound {
		t.Fatalf("%d entries, %d slots, bound %d", entries, slots, bound)
	}
}

// refIDMap is IDMap as it was on a Go map, verbatim but for its names: the
// reference model the map is held to.
//
// IDMap is a bounded map from request id to V with first-in-first-out
// eviction: what a prediction leaves behind for the POST /observe that may
// follow it — here the pending prediction, in the proxy the backend that
// holds it. Insertion order lives in a ring of bound slots, so the map and its
// order storage are bounded together whether or not entries are taken: the
// insert that wraps onto a slot evicts the id the slot held, unless that id
// was taken or re-inserted since. Ids are copied into chunks the map owns,
// so an entry never keeps the buffer its id arrived in (a decoded wire
// frame) alive. Safe for concurrent use.
type refIDMap[V any] struct {
	mu    sync.Mutex
	m     map[string]refEntry[V]
	ring  []refSlot // insertion order; grows to bound, then overwritten oldest first
	next  int       // the oldest slot once the ring is full
	bound int
	seq   uint64 // inserts so far; pairs an entry with the slot that owns it
	ids   idArena
}

type refEntry[V any] struct {
	v   V
	seq uint64
}

type refSlot struct {
	id  string
	seq uint64
}

// newRefIDMap returns a map that remembers the last bound inserts.
func newRefIDMap[V any](bound int) *refIDMap[V] {
	return &refIDMap[V]{m: make(map[string]refEntry[V]), bound: bound}
}

// Put maps id to v; the last write for an id wins.
func (m *refIDMap[V]) Put(id string, v V) {
	m.mu.Lock()
	m.put(cloneID(&m.ids, id), v)
	m.mu.Unlock()
}

// PutAll inserts up to n entries under one lock acquisition — a forward
// pass, a relayed frame. at(i) yields entry i, or ok false to skip it; it
// runs under the lock and must not call back into the map.
func (m *refIDMap[V]) PutAll(n int, at func(i int) (id string, v V, ok bool)) { refPutAll(m, n, at) }

// PutAllBytes is PutAll for ids held as bytes — views into a relayed wire
// frame — which the map copies like any other.
func (m *refIDMap[V]) PutAllBytes(n int, at func(i int) (id []byte, v V, ok bool)) {
	refPutAll(m, n, at)
}

func refPutAll[T string | []byte, V any](m *refIDMap[V], n int, at func(i int) (T, V, bool)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := 0; i < n; i++ {
		if id, v, ok := at(i); ok {
			m.put(cloneID(&m.ids, id), v)
		}
	}
}

// put maps an id the map owns to v.
func (m *refIDMap[V]) put(id string, v V) {
	m.seq++
	slot := refSlot{id: id, seq: m.seq}
	if len(m.ring) < m.bound {
		m.ring = append(m.ring, slot)
	} else {
		// Evict what the oldest insert left, if it is still that insert's:
		// a taken id is gone already, a re-inserted one belongs to a newer slot.
		if old := m.ring[m.next]; m.m[old.id].seq == old.seq {
			delete(m.m, old.id)
		}
		m.ring[m.next] = slot
		m.next = (m.next + 1) % m.bound
	}
	// A map keeps the key it first saw; re-key a re-inserted id by its
	// newest copy so the chunk holding the old one can be freed.
	delete(m.m, id)
	m.m[id] = refEntry[V]{v: v, seq: m.seq}
}

// Take removes and returns the entry for id.
func (m *refIDMap[V]) Take(id string) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.m[id]
	if ok {
		delete(m.m, id)
	}
	return e.v, ok
}

// Size returns how many entries are held (not yet taken or evicted) and how
// many order slots exist for them; neither exceeds the bound.
func (m *refIDMap[V]) Size() (entries, slots int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m), len(m.ring)
}

// checkIndex holds m's index to its invariants: every live slot has exactly
// one cell, no cell names a dead slot, and no empty cell lies between an
// entry's home cell and its own — the property backward-shift deletion keeps
// and tombstone-free lookups rely on.
func checkIndex[V any](t testing.TB, m *IDMap[V]) {
	t.Helper()
	cells := 0
	for c, p := range m.index {
		if p == 0 {
			continue
		}
		cells++
		s := m.ring[p-1]
		if !s.live {
			t.Fatalf("cell %d names dead slot %d", c, p-1)
		}
		for h := s.hash & m.mask; h != uint64(c); h = (h + 1) & m.mask {
			if m.index[h] == 0 {
				t.Fatalf("slot %d (%q) at cell %d is cut off from its home %d by empty cell %d", p-1, s.id, c, s.hash&m.mask, h)
			}
		}
	}
	if cells != m.live {
		t.Fatalf("%d index cells, %d live entries", cells, m.live)
	}
}

// idMapOps drives an IDMap and its reference through the same operations,
// read from next: Put, PutAll and PutAllBytes (with skipped entries) and
// Take, over a pool of ids small enough that ids repeat, get re-inserted and
// are taken after their eviction. Every Take must answer as the reference
// does, and after every operation Size must agree and the index must hold.
func idMapOps(t testing.TB, bound int, ops int, next func() int) {
	m, ref := NewIDMap[int](bound), newRefIDMap[int](bound)
	pool := 2*bound + 3
	id := func() string { return fmt.Sprintf("id-%d", next()%pool) }
	for op := 0; op < ops; op++ {
		switch next() % 4 {
		case 0:
			k := id()
			m.Put(k, op)
			ref.Put(k, op)
		case 1, 2:
			n := next() % 6
			ids := make([]string, n)
			skip := make([]bool, n)
			for i := range ids {
				ids[i], skip[i] = id(), next()%5 == 0
			}
			if next()%2 == 0 {
				at := func(i int) (string, int, bool) { return ids[i], op*8 + i, !skip[i] }
				m.PutAll(n, at)
				ref.PutAll(n, at)
			} else {
				raw := make([][]byte, n)
				for i := range ids {
					raw[i] = []byte(ids[i])
				}
				m.PutAllBytes(n, func(i int) ([]byte, int, bool) { return raw[i], op*8 + i, !skip[i] })
				ref.PutAllBytes(n, func(i int) ([]byte, int, bool) { return raw[i], op*8 + i, !skip[i] })
				for _, r := range raw { // the map must have copied them
					for k := range r {
						r[k] = '#'
					}
				}
			}
		case 3:
			k := id()
			v, ok := m.Take(k)
			rv, rok := ref.Take(k)
			if v != rv || ok != rok {
				t.Fatalf("bound %d op %d: Take(%q) = %d, %v; reference %d, %v", bound, op, k, v, ok, rv, rok)
			}
		}
		e, s := m.Size()
		if re, rs := ref.Size(); e != re || s != rs {
			t.Fatalf("bound %d op %d: Size %d, %d; reference %d, %d", bound, op, e, s, re, rs)
		}
		checkIndex(t, m)
	}
	for i := 0; i < pool; i++ { // what is left, taken from both
		k := fmt.Sprintf("id-%d", i)
		v, ok := m.Take(k)
		if rv, rok := ref.Take(k); v != rv || ok != rok {
			t.Fatalf("bound %d drain: Take(%q) = %d, %v; reference %d, %v", bound, k, v, ok, rv, rok)
		}
	}
}

// TestIDMapMatchesReference: seeded random operations at every bound from 1
// to 17 answer as the Go-map IDMap did.
func TestIDMapMatchesReference(t *testing.T) {
	for bound := 1; bound <= 17; bound++ {
		rng := rand.New(rand.NewSource(int64(bound)))
		idMapOps(t, bound, 3000, rng.Int)
	}
}

// FuzzIDMap is TestIDMapMatchesReference with the bound and every operation
// read from the input.
func FuzzIDMap(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 2, 1, 3, 7, 3, 1, 0, 5, 2})
	f.Add([]byte{16, 1, 5, 0, 1, 2, 3, 4, 3, 0, 3, 1, 2, 1, 5, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		i := 0
		next := func() int {
			if i >= len(data) {
				return 0
			}
			i++
			return int(data[i-1])
		}
		idMapOps(t, 1+next()%17, len(data), next)
	})
}

// TestIDMapBackwardShift builds one long probe run — ids whose hashes share
// a home cell, then ids homed inside the run — and deletes from its head,
// its middle and its end, by Take and by eviction: every id still held must
// stay reachable, with no empty cell left between an entry and its home.
func TestIDMapBackwardShift(t *testing.T) {
	const bound = 16
	m, ref := NewIDMap[int](bound), newRefIDMap[int](bound)
	home := func(id string) uint64 { return hashID(m.seed, id) & m.mask }
	var run []string // 6 ids homed at cell 0, then 4 homed at cells 1 and 2
	for i := 0; len(run) < 10; i++ {
		id := fmt.Sprintf("rid-%d", i)
		if h := home(id); (len(run) < 6 && h == 0) || (len(run) >= 6 && (h == 1 || h == 2)) {
			run = append(run, id)
		}
	}
	for i, id := range run {
		m.Put(id, i)
		ref.Put(id, i)
	}
	checkIndex(t, m)
	for _, id := range []string{run[0], run[3], run[9], run[6]} {
		v, ok := m.Take(id)
		if rv, rok := ref.Take(id); v != rv || ok != rok {
			t.Fatalf("Take(%q) = %d, %v; reference %d, %v", id, v, ok, rv, rok)
		}
		checkIndex(t, m)
	}
	for i := 0; i < bound; i++ { // a full turn of the ring evicts the rest
		id := fmt.Sprintf("fill-%d", i)
		m.Put(id, 100+i)
		ref.Put(id, 100+i)
		checkIndex(t, m)
	}
	for _, id := range run {
		v, ok := m.Take(id)
		if rv, rok := ref.Take(id); v != rv || ok != rok {
			t.Fatalf("after a full turn, Take(%q) = %d, %v; reference %d, %v", id, v, ok, rv, rok)
		}
	}
	if e, s := m.Size(); e != bound || s != bound {
		t.Fatalf("%d entries, %d slots; want %d, %d", e, s, bound, bound)
	}
}

// TestIDMapConcurrent: the map's operations are safe together (run under
// -race).
func TestIDMapConcurrent(t *testing.T) {
	m := NewIDMap[int](64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := fmt.Sprintf("%d-%d", g, i%80)
				m.Put(id, i)
				m.Take(fmt.Sprintf("%d-%d", g, (i+40)%80))
				m.Size()
			}
		}(g)
	}
	wg.Wait()
	if e, s := m.Size(); e > 64 || s > 64 {
		t.Fatalf("%d entries, %d slots over a bound of 64", e, s)
	}
}

// BenchmarkIDMapPutAll32 is one frame's worth of inserts — 32 request ids
// of 16 bytes, as bytes — into a full map of the serving bound.
func BenchmarkIDMapPutAll32(b *testing.B) {
	const bound, frame = 4096, 32
	m := NewIDMap[pendingPrediction](bound)
	ids := make([][]byte, 8*bound)
	for i := range ids {
		ids[i] = []byte(fmt.Sprintf("%016x", uint64(i)*0x9e3779b97f4a7c15))
	}
	for i := 0; i < bound; i++ {
		m.Put(string(ids[i]), pendingPrediction{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := (i * frame) % len(ids)
		m.PutAllBytes(frame, func(k int) ([]byte, pendingPrediction, bool) {
			return ids[base+k], pendingPrediction{pred: float64(k)}, true
		})
	}
}
