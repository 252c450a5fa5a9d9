package serve

import (
	"strings"
	"sync"
)

// IDMap is a bounded map from request id to V with first-in-first-out
// eviction: what a prediction leaves behind for the POST /observe that may
// follow it — here the pending prediction, in the proxy the backend that
// holds it. Insertion order lives in a ring of bound slots, so the map and its
// order storage are bounded together whether or not entries are taken: the
// insert that wraps onto a slot evicts the id the slot held, unless that id
// was taken or re-inserted since. Ids are copied into chunks the map owns,
// so an entry never keeps the buffer its id arrived in (a decoded wire
// frame) alive. Safe for concurrent use.
type IDMap[V any] struct {
	mu    sync.Mutex
	m     map[string]idEntry[V]
	ring  []idSlot // insertion order; grows to bound, then overwritten oldest first
	next  int      // the oldest slot once the ring is full
	bound int
	seq   uint64 // inserts so far; pairs an entry with the slot that owns it
	ids   idArena
}

type idEntry[V any] struct {
	v   V
	seq uint64
}

type idSlot struct {
	id  string
	seq uint64
}

// NewIDMap returns a map that remembers the last bound inserts.
func NewIDMap[V any](bound int) *IDMap[V] {
	return &IDMap[V]{m: make(map[string]idEntry[V]), bound: bound}
}

// Put maps id to v; the last write for an id wins.
func (m *IDMap[V]) Put(id string, v V) {
	m.mu.Lock()
	m.put(id, v)
	m.mu.Unlock()
}

// PutAll inserts up to n entries under one lock acquisition — a forward
// pass, a relayed frame. at(i) yields entry i, or ok false to skip it; it
// runs under the lock and must not call back into the map.
func (m *IDMap[V]) PutAll(n int, at func(i int) (id string, v V, ok bool)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := 0; i < n; i++ {
		if id, v, ok := at(i); ok {
			m.put(id, v)
		}
	}
}

func (m *IDMap[V]) put(id string, v V) {
	id = m.ids.clone(id)
	m.seq++
	slot := idSlot{id: id, seq: m.seq}
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
	m.m[id] = idEntry[V]{v: v, seq: m.seq}
}

// Take removes and returns the entry for id.
func (m *IDMap[V]) Take(id string) (V, bool) {
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
func (m *IDMap[V]) Size() (entries, slots int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m), len(m.ring)
}

// idArena copies the ids an IDMap keeps into chunks of its own, so a kept id
// costs its bytes and no allocation, and never the buffer it came from. A
// chunk is freed once every id in it has left the ring and the map.
type idArena struct{ chunk strings.Builder }

func (a *idArena) clone(id string) string {
	if a.chunk.Cap()-a.chunk.Len() < len(id) {
		a.chunk = strings.Builder{}
		a.chunk.Grow(max(4096, len(id)))
	}
	// The chunk never grows past its capacity, so the strings handed out
	// earlier keep their bytes while later ones are appended behind them.
	n := a.chunk.Len()
	a.chunk.WriteString(id)
	return a.chunk.String()[n:]
}
