package tensor

// Arena is a bump allocator for matrix storage: slices and matrices are
// carved from a few large chunks that Reset rewinds, so whoever reuses one —
// the autodiff tape building graph after graph, the predictor running pass
// after pass — works in the memory of the first round and steady state
// allocates nothing. Storage is handed out dirty: a caller overwrites what
// it takes in full, or clears it. Everything carved is dead after the Reset
// (or the Release of an earlier Mark) that follows it.
//
// An Arena is not safe for concurrent use; its owners keep one per tape and
// one per forward pass (a sync.Pool each).
type Arena[T Float] struct {
	chunks [][]T
	chunk  int // chunk currently being carved
	off    int // carve offset inside chunks[chunk]
	total  int // elements across all chunks

	mats []*Mat[T] // recycled headers
	used int
}

// Chunk sizes in elements. A chunk is as large as everything before it, from
// 1 Ki up to 64 Ki (8 KB to 512 KB of float64): a three-node graph costs
// 8 KB, a training step's megabytes arrive in a couple of dozen allocations,
// and an arena that is never reused — whose chunks the runtime zeroes once
// each — overshoots what it needs by half a megabyte at most.
const (
	arenaMinChunk = 1 << 10
	arenaMaxChunk = 1 << 16
)

// ArenaMark is a position to rewind to: what was taken after it is dead.
type ArenaMark struct{ chunk, off, used int }

func (a *Arena[T]) Mark() ArenaMark     { return ArenaMark{a.chunk, a.off, a.used} }
func (a *Arena[T]) Release(m ArenaMark) { a.chunk, a.off, a.used = m.chunk, m.off, m.used }
func (a *Arena[T]) Reset()              { a.Release(ArenaMark{}) }

// Take carves n elements of uninitialized storage.
func (a *Arena[T]) Take(n int) []T {
	for ; a.chunk < len(a.chunks); a.chunk, a.off = a.chunk+1, 0 {
		// A chunk's unused tail is skipped, and reclaimed by the next reset.
		if c := a.chunks[a.chunk]; a.off+n <= len(c) {
			v := c[a.off : a.off+n : a.off+n]
			a.off += n
			return v
		}
	}
	size := max(n, min(a.total, arenaMaxChunk), arenaMinChunk)
	a.chunks = append(a.chunks, make([]T, size))
	a.total += size
	a.off = n
	return a.chunks[a.chunk][:n:n]
}

// Mat carves an uninitialized rows×cols matrix under a recycled header.
func (a *Arena[T]) Mat(rows, cols int) *Mat[T] {
	return a.View(rows, cols, a.Take(rows*cols))
}

// View wraps existing storage in a recycled header without copying: the
// header dies with the arena's next rewind, the storage stays the caller's.
func (a *Arena[T]) View(rows, cols int, data []T) *Mat[T] {
	if a.used == len(a.mats) {
		block := make([]Mat[T], 16) // headers by the block: a cold pass wants dozens
		for i := range block {
			a.mats = append(a.mats, &block[i])
		}
	}
	m := a.mats[a.used]
	a.used++
	m.Rows, m.Cols, m.Data = rows, cols, data
	return m
}
