package serve

import (
	"fmt"
	"testing"
)

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
