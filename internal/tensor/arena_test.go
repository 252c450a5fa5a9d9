package tensor

import "testing"

func TestArenaViewsDisjoint(t *testing.T) {
	a := &Arena[float64]{}
	// Mix of sizes, including ones larger than a chunk so growth paths run.
	shapes := [][2]int{{4, 8}, {1, 1}, {100, 50}, {3, 3}, {64, 70}, {2, arenaMinChunk}, {3, arenaMaxChunk}}
	mats := make([][]float64, 0, len(shapes))
	for _, s := range shapes {
		m := a.Mat(s[0], s[1])
		if m.Rows != s[0] || m.Cols != s[1] || len(m.Data) != s[0]*s[1] {
			t.Fatalf("Mat(%d,%d) has shape %dx%d len %d", s[0], s[1], m.Rows, m.Cols, len(m.Data))
		}
		fill(m, float64(len(mats)))
		mats = append(mats, m.Data)
	}
	for i := range mats {
		for j := i + 1; j < len(mats); j++ {
			if overlap(mats[i], mats[j]) {
				t.Fatalf("views %d and %d share storage", i, j)
			}
		}
		for _, v := range mats[i] {
			if v != float64(i) {
				t.Fatalf("view %d was overwritten by a later carve", i)
			}
		}
	}
}

func TestArenaResetReuses(t *testing.T) {
	a := &Arena[float32]{}
	carve := func() {
		a.Reset()
		a.Mat(8, 8)
		a.Mat(100, 50)
		a.Mat(2, arenaMaxChunk)
		a.View(4, 2, make([]float32, 8))
	}
	carve()
	chunks, headers := len(a.chunks), len(a.mats)
	for i := 0; i < 10; i++ {
		carve()
	}
	if len(a.chunks) != chunks {
		t.Fatalf("steady-state carving grew chunks %d → %d", chunks, len(a.chunks))
	}
	if len(a.mats) != headers {
		t.Fatalf("steady-state carving grew headers %d → %d", headers, len(a.mats))
	}
}

// TestArenaReleaseRewinds: what is taken after a Mark is handed out again
// after its Release — storage and headers — and what was taken before it is
// left alone.
func TestArenaReleaseRewinds(t *testing.T) {
	a := &Arena[float64]{}
	kept := a.Mat(3, 3)
	fill(kept, 1)
	mark := a.Mark()
	first := a.Mat(5, 5)
	a.Take(3 * arenaMinChunk) // into another chunk
	a.Release(mark)
	if a.Mark() != mark {
		t.Fatalf("Release left the arena at %+v, want %+v", a.Mark(), mark)
	}
	again := a.Mat(5, 5)
	if again != first || &again.Data[0] != &first.Data[0] {
		t.Fatalf("storage taken after the mark was not reused")
	}
	fill(again, 2)
	if kept.Sum() != 9 {
		t.Fatalf("a carve after Release overwrote storage taken before the mark")
	}
}
