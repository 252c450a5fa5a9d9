package autodiff

// arena is the tape's bump allocator for matrix storage: node values,
// gradients and backward temporaries are carved from a few large chunks
// that Reset rewinds, so a tape that is reused builds graph after graph in
// the memory of the first. Storage is handed out dirty — every operation
// overwrites its value in full, and the tape zeroes what it uses as a
// gradient.
type arena struct {
	chunks [][]float64
	chunk  int // chunk currently being carved
	off    int // carve offset inside chunks[chunk]
	total  int // floats across all chunks
}

// Chunk sizes in floats. A chunk is as large as everything before it, from
// 8 KB up to 512 KB: a three-node graph costs 8 KB, a training step's
// megabytes arrive in a couple of dozen allocations, and a tape that is
// never reused — whose chunks the runtime zeroes once each — overshoots what
// it needs by half a megabyte at most.
const (
	arenaMinChunk = 1 << 10
	arenaMaxChunk = 1 << 16
)

// arenaMark is a position to rewind to: what was taken after it is dead.
type arenaMark struct{ chunk, off int }

func (a *arena) mark() arenaMark     { return arenaMark{a.chunk, a.off} }
func (a *arena) release(m arenaMark) { a.chunk, a.off = m.chunk, m.off }
func (a *arena) reset()              { a.chunk, a.off = 0, 0 }

// take carves n floats of uninitialized storage.
func (a *arena) take(n int) []float64 {
	for ; a.chunk < len(a.chunks); a.chunk, a.off = a.chunk+1, 0 {
		// A chunk's unused tail is skipped, and reclaimed by the next reset.
		if c := a.chunks[a.chunk]; a.off+n <= len(c) {
			v := c[a.off : a.off+n : a.off+n]
			a.off += n
			return v
		}
	}
	size := max(n, min(a.total, arenaMaxChunk), arenaMinChunk)
	a.chunks = append(a.chunks, make([]float64, size))
	a.total += size
	a.off = n
	return a.chunks[a.chunk][:n:n]
}
