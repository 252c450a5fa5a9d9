package serve

import (
	"hash/maphash"
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
//
// There is no Go map: an entry lives in its ring slot (id, hash, value), and
// an open-addressing index of ring positions, a power of two at least twice
// the bound, finds it by a hash/maphash hash under a seed of the map's own,
// so a client cannot choose ids that collide. Deletion shifts the rest of a
// probe run back instead of leaving tombstones, so runs stay short under
// churn, and eviction finds the oldest slot's index cell by its ring
// position without comparing ids. An id held as bytes is hashed and
// compared as bytes; it is copied only to be kept.
type IDMap[V any] struct {
	mu    sync.Mutex
	ring  []idSlot[V] // insertion order; grows to bound, then overwritten oldest first
	next  int         // the oldest slot once the ring is full
	bound int
	index []int32 // ring position + 1 of the entry whose probe run covers the cell; 0 is empty
	mask  uint64  // len(index) − 1
	live  int     // entries held
	seed  maphash.Seed
	ids   idArena
}

// idSlot is one insert; live until its id is taken, re-inserted or evicted.
type idSlot[V any] struct {
	id   string
	hash uint64
	v    V
	live bool
}

// NewIDMap returns a map that remembers the last bound inserts.
func NewIDMap[V any](bound int) *IDMap[V] {
	size := 2
	for size < 2*bound {
		size *= 2
	}
	return &IDMap[V]{bound: bound, index: make([]int32, size), mask: uint64(size - 1), seed: maphash.MakeSeed()}
}

// Put maps id to v; the last write for an id wins.
func (m *IDMap[V]) Put(id string, v V) {
	m.mu.Lock()
	put(m, id, v)
	m.mu.Unlock()
}

// PutAll inserts up to n entries under one lock acquisition — a forward
// pass, a relayed frame. at(i) yields entry i, or ok false to skip it; it
// runs under the lock and must not call back into the map.
func (m *IDMap[V]) PutAll(n int, at func(i int) (id string, v V, ok bool)) { putAll(m, n, at) }

// PutAllBytes is PutAll for ids held as bytes — views into a relayed wire
// frame — which the map copies like any other.
func (m *IDMap[V]) PutAllBytes(n int, at func(i int) (id []byte, v V, ok bool)) { putAll(m, n, at) }

func putAll[T string | []byte, V any](m *IDMap[V], n int, at func(i int) (T, V, bool)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := 0; i < n; i++ {
		if id, v, ok := at(i); ok {
			put(m, id, v)
		}
	}
}

// put maps id to v in the next ring slot, evicting what the oldest insert
// left there if it is still that insert's: a taken id is gone already, a
// re-inserted one belongs to a newer slot.
func put[T string | []byte, V any](m *IDMap[V], id T, v V) {
	h := hashID(m.seed, id)
	if c, ok := find(m, id, h); ok {
		m.drop(c) // the last write wins, and its slot owns the id from now on
	}
	pos := len(m.ring)
	if pos < m.bound {
		m.ring = append(m.ring, idSlot[V]{})
	} else {
		pos = m.next
		m.next = (m.next + 1) % m.bound
		if m.ring[pos].live {
			c := m.ring[pos].hash & m.mask
			for int(m.index[c]) != pos+1 {
				c = (c + 1) & m.mask
			}
			m.drop(c)
		}
	}
	m.ring[pos] = idSlot[V]{id: cloneID(&m.ids, id), hash: h, v: v, live: true}
	c := h & m.mask
	for m.index[c] != 0 {
		c = (c + 1) & m.mask
	}
	m.index[c] = int32(pos + 1)
	m.live++
}

// Take removes and returns the entry for id.
func (m *IDMap[V]) Take(id string) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := find(m, id, hashID(m.seed, id))
	if !ok {
		var zero V
		return zero, false
	}
	v := m.ring[m.index[c]-1].v
	m.drop(c)
	return v, true
}

// find returns the index cell of id's entry, probing from its hash's home
// cell up to the first empty one.
func find[T string | []byte, V any](m *IDMap[V], id T, h uint64) (cell uint64, ok bool) {
	for c := h & m.mask; ; c = (c + 1) & m.mask {
		p := m.index[c]
		if p == 0 {
			return c, false
		}
		if s := &m.ring[p-1]; s.hash == h && sameID(s.id, id) {
			return c, true
		}
	}
}

// drop removes the entry at index cell c: its slot stops holding it (value
// and id released) and the probe run after c shifts back over the hole, each
// entry moving to the vacated cell unless its home lies after that cell.
func (m *IDMap[V]) drop(c uint64) {
	m.ring[m.index[c]-1] = idSlot[V]{}
	m.live--
	for j := c; ; {
		j = (j + 1) & m.mask
		p := m.index[j]
		if p == 0 {
			break
		}
		if home := m.ring[p-1].hash & m.mask; (j-home)&m.mask >= (j-c)&m.mask {
			m.index[c] = p
			c = j
		}
	}
	m.index[c] = 0
}

// hashID hashes an id, held as a string or as bytes, to the same value.
func hashID[T string | []byte](seed maphash.Seed, id T) uint64 {
	if s, ok := any(id).(string); ok {
		return maphash.String(seed, s)
	}
	return maphash.Bytes(seed, any(id).([]byte))
}

// sameID reports whether a kept id equals one held as a string or as bytes.
func sameID[T string | []byte](kept string, id T) bool {
	if s, ok := any(id).(string); ok {
		return kept == s
	}
	return kept == string(any(id).([]byte))
}

// idArena copies the ids an IDMap keeps into chunks of its own, so a kept id
// costs its bytes and no allocation, and never the buffer it came from. A
// chunk is freed once every id in it has left the ring and the map.
type idArena struct{ chunk strings.Builder }

// cloneID copies an id, held as a string or as bytes, into the arena.
func cloneID[T string | []byte](a *idArena, id T) string {
	n := a.room(len(id))
	switch id := any(id).(type) {
	case string:
		a.chunk.WriteString(id)
	case []byte:
		a.chunk.Write(id)
	}
	return a.chunk.String()[n:]
}

// room makes space for an id of n bytes and returns where it will start.
// The chunk never grows past its capacity, so the strings handed out earlier
// keep their bytes while later ones are appended behind them.
func (a *idArena) room(n int) int {
	if a.chunk.Cap()-a.chunk.Len() < n {
		a.chunk = strings.Builder{}
		a.chunk.Grow(max(4096, n))
	}
	return a.chunk.Len()
}
