package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randMat fills a rows×cols matrix with non-trivial values (including exact
// zeros, so the naive kernel's zero-skip path participates in the parity).
func randMat(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		switch rng.Intn(10) {
		case 0:
			m.Data[i] = 0
		default:
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

// fill sets every element of m to v.
func fill[T Float](m *Mat[T], v T) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// to32 returns a float32 copy of m, rounding every element once, and round32
// that copy widened back — "what the float32 weights actually are" as a
// float64 reference.
func to32(m *Matrix) *Matrix32 {
	out := New32(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = float32(v)
	}
	return out
}

func round32(m *Matrix) *Matrix {
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = float64(float32(v))
	}
	return out
}

// MatMulInto is the naive triple loop the blocked kernel and the vector tile
// replaced, kept here as their bit-exact reference: one output row at a
// time, k ascending, a read-modify-write of out per multiply-add. It skips
// zero a values, which changes nothing for finite operands. No non-test
// code calls it.
func MatMulInto(out, a, b *Matrix) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic("tensor: MatMulInto shape mismatch")
	}
	if overlap(out.Data, a.Data) || overlap(out.Data, b.Data) {
		panic("tensor: MatMulInto out aliases an operand")
	}
	out.Zero()
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*b.Cols : (i+1)*b.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// matMulNaive is the allocating form of the reference.
func matMulNaive(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// TestBlockedMatchesNaive drives the blocked kernel across ragged shapes —
// 1×1, primes, dimensions straddling every tail path — and demands
// bit-identical agreement with the naive reference. The two kernels share
// per-element accumulation order, so any difference at all is a bug, not
// round-off.
func TestBlockedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := [][3]int{
		{1, 1, 1},
		{1, 4, 1}, {4, 1, 4}, {4, 4, 4}, {8, 8, 8},
		{2, 3, 5}, {3, 7, 11}, {5, 13, 3}, {7, 5, 17}, // primes: all tails
		{4, 4, 5}, {4, 4, 7}, {5, 4, 4}, {6, 4, 4}, // one ragged dim
		{9, 6, 10}, {13, 31, 29}, {1, 64, 33},
		{32, 32, 32}, {8, 32, 96}, // the inference hot shapes
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a, b := randMat(rng, m, k), randMat(rng, k, n)
			want := matMulNaive(a, b)
			got := New(m, n)
			fill(got, math.NaN()) // any element the kernel misses survives as NaN
			MatMulBlockedInto(got, a, b)
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("element %d: blocked %v vs naive %v", i, got.Data[i], want.Data[i])
				}
			}
			if conv := MatMul(a, b); !Equal(conv, want, 0) {
				t.Fatalf("MatMul convenience form diverges")
			}
		})
	}
}

// TestBlocked32MatchesFloat64 pins the float32 kernel's error bound: against
// the float64 reference on the same (float32-rounded) inputs, every element
// stays within a few k·eps32 — the tolerance rationale documented in
// docs/performance.md.
func TestBlocked32MatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, s := range [][3]int{{1, 1, 1}, {3, 7, 11}, {8, 32, 96}, {5, 13, 3}, {33, 31, 5}} {
		m, k, n := s[0], s[1], s[2]
		a, b := randMat(rng, m, k), randMat(rng, k, n)
		a32, b32 := to32(a), to32(b)
		want := matMulNaive(round32(a), round32(b))
		got := New32(m, n)
		MatMulBlockedInto32(got, a32, b32)
		tol := float64(k+4) * 1.2e-7
		for i := range want.Data {
			scale := math.Max(1, math.Abs(want.Data[i]))
			if diff := math.Abs(float64(got.Data[i]) - want.Data[i]); diff > tol*scale {
				t.Fatalf("%dx%dx%d element %d: f32 %v vs f64 %v (diff %g, tol %g)",
					m, k, n, i, got.Data[i], want.Data[i], diff, tol*scale)
			}
		}
	}
}

// TestBlockedZeroK pins the k=0 guard: the inner dimension collapses to
// nothing, so the kernel must zero-fill out rather than leave stale scratch.
func TestBlockedZeroK(t *testing.T) {
	a, b := New(3, 0), New(0, 5)
	out := New(3, 5)
	fill(out, 7)
	MatMulBlockedInto(out, a, b)
	for i, v := range out.Data {
		if v != 0 {
			t.Fatalf("k=0 element %d = %v, want 0", i, v)
		}
	}
	out32 := New32(3, 5)
	for i := range out32.Data {
		out32.Data[i] = 7
	}
	MatMulBlockedInto32(out32, &Matrix32{Rows: 3, Cols: 0}, &Matrix32{Rows: 0, Cols: 5})
	for i, v := range out32.Data {
		if v != 0 {
			t.Fatalf("f32 k=0 element %d = %v, want 0", i, v)
		}
	}
}

// edgeMat fills a rows×cols matrix with the values that separate a fused
// multiply-add from a multiply then an add, and a skipped term from a
// computed one: exact zeros of either sign, subnormals, ±1e300 (products
// overflow, sums of opposite infinities go NaN) and ordinary normals.
func edgeMat(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		sign := float64(1 - 2*rng.Intn(2))
		switch rng.Intn(12) {
		case 0:
			m.Data[i] = 0 * sign
		case 1:
			m.Data[i] = sign * 5e-324 * float64(1+rng.Intn(1000))
		case 2:
			m.Data[i] = sign * 1e300
		default:
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

// TestF64TileMatchesScalar is the bit-identity contract of the float64 tile:
// over every tile boundary (full 4×8 tiles, 1×8 row tails, the Go column
// tails beside them, k from 0 up) and every shape the model multiplies, the
// assembly path, the scalar path and the naive reference produce the same
// math.Float64bits in every element. A VFMADD in the tile fails this on the
// first shape with k > 1.
func TestF64TileMatchesScalar(t *testing.T) {
	if !useAsm {
		t.Log("no AVX2 tiles on this CPU: comparing the scalar kernel with the naive reference only")
	}
	defer func(old bool) { useAsm = old }(useAsm)
	hasAsm := useAsm
	rng := rand.New(rand.NewSource(46))
	ms := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 32, 64}
	ns := []int{32, 40, 64, 96}
	for n := 1; n <= 19; n++ {
		ns = append(ns, n)
	}
	sameBits := func(what string, got, want *Matrix) {
		t.Helper()
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%s element %d: %x (%v) vs %x (%v)", what, i,
					math.Float64bits(got.Data[i]), got.Data[i], math.Float64bits(want.Data[i]), want.Data[i])
			}
		}
	}
	for _, m := range ms {
		for _, n := range ns {
			for _, k := range []int{0, 1, 2, 5, 32, 33, 96} {
				a, b := edgeMat(rng, m, k), edgeMat(rng, k, n)
				naive := matMulNaive(a, b)
				for _, asm := range []bool{false, true} {
					if asm && !hasAsm {
						continue
					}
					useAsm = asm
					what := fmt.Sprintf("%dx%dx%d asm=%v", m, k, n, asm)
					got := New(m, n)
					fill(got, math.NaN())
					MatMulBlockedInto(got, a, b)
					sameBits(what, got, naive)
				}
			}
		}
	}
}

// TestF32VectorMatchesScalar cross-checks the AVX2+FMA tile driver against
// the portable scalar kernel on shapes that exercise every tile boundary:
// full 4×16 tiles, 1×16 row tails, sub-16 column tails, and single-row
// products. The two paths share per-element accumulation order but the
// vector tiles fuse each multiply-add, so agreement is to float32 round-off
// rather than bitwise.
func TestF32VectorMatchesScalar(t *testing.T) {
	if !useAsm {
		t.Skip("no AVX2+FMA vector tiles on this CPU")
	}
	rng := rand.New(rand.NewSource(45))
	shapes := [][3]int{
		{4, 32, 16}, {8, 32, 64}, {8, 32, 32}, {160, 1, 96}, // serving hot shapes
		{1, 32, 64}, {2, 5, 16}, {5, 7, 19}, {6, 9, 33}, {3, 1, 17}, {7, 13, 15},
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a, b := randMat(rng, m, k), randMat(rng, k, n)
		a32, b32 := to32(a), to32(b)
		asm, sc := New32(m, n), New32(m, n)
		MatMulBlockedInto(asm, a32, b32)
		matMulScalar(sc.Data, a32.Data, b32.Data, m, k, n, 0)
		tol := float64(k+4) * 2.4e-7
		for i := range asm.Data {
			scale := math.Max(1, math.Abs(float64(sc.Data[i])))
			if d := math.Abs(float64(asm.Data[i] - sc.Data[i])); d > tol*scale {
				t.Fatalf("%dx%dx%d element %d: vector %v vs scalar %v", m, k, n, i, asm.Data[i], sc.Data[i])
			}
		}
	}
}

// TestBlockedShapePanics mirrors the naive kernel's misuse contract.
func TestBlockedShapePanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("inner mismatch", func() { MatMulBlockedInto(New(2, 3), New(2, 4), New(5, 3)) })
	expectPanic("out shape", func() { MatMulBlockedInto(New(3, 3), New(2, 4), New(4, 3)) })
	expectPanic("inner mismatch f32", func() { MatMulBlockedInto32(New32(2, 3), New32(2, 4), New32(5, 3)) })
	expectPanic("out shape f32", func() { MatMulBlockedInto32(New32(3, 3), New32(2, 4), New32(4, 3)) })
}

// TestBlockedAliasPanics extends the MatMulInto aliasing-corruption guard to
// the blocked and float32 entry points: out sharing storage with an operand
// must fail loudly, including partial overlaps carved from one backing array.
func TestBlockedAliasPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected aliasing panic", name)
			}
		}()
		f()
	}
	sq := New(4, 4)
	expectPanic("out==a", func() { MatMulBlockedInto(sq, sq, New(4, 4)) })
	expectPanic("out==b", func() { MatMulBlockedInto(sq, New(4, 4), sq) })
	backing := make([]float64, 32)
	expectPanic("partial overlap", func() {
		out := FromSlice(4, 4, backing[8:24])
		a := FromSlice(4, 4, backing[:16])
		MatMulBlockedInto(out, a, New(4, 4))
	})
	sq32 := New32(4, 4)
	expectPanic("f32 out==a", func() { MatMulBlockedInto32(sq32, sq32, New32(4, 4)) })
	expectPanic("f32 out==b", func() { MatMulBlockedInto32(sq32, New32(4, 4), sq32) })
	backing32 := make([]float32, 32)
	expectPanic("f32 partial overlap", func() {
		out := &Matrix32{Rows: 4, Cols: 4, Data: backing32[8:24]}
		a := &Matrix32{Rows: 4, Cols: 4, Data: backing32[:16]}
		MatMulBlockedInto32(out, a, New32(4, 4))
	})
}

// The hot inference shape: the per-step recurrent product at batch 8 with
// the fused [Uz|Ur] right-hand side (32×64).
func benchOperands(rng *rand.Rand) (*Matrix, *Matrix, *Matrix) {
	return New(8, 64), randMat(rng, 8, 32), randMat(rng, 32, 64)
}

func BenchmarkMatMulNaive_8x32x64(b *testing.B) {
	out, x, w := benchOperands(rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulInto(out, x, w)
	}
}

func BenchmarkMatMulBlocked_8x32x64(b *testing.B) {
	out, x, w := benchOperands(rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulBlockedInto(out, x, w)
	}
}

// The training step's shapes at batch 32: a recurrent product h·U and the
// dense layer [v_ts|v_fs]·W.
func benchMatMulBlocked(b *testing.B, m, k, n int) {
	rng := rand.New(rand.NewSource(1))
	out, x, w := New(m, n), randMat(rng, m, k), randMat(rng, k, n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulBlockedInto(out, x, w)
	}
}

func BenchmarkMatMulBlocked_32x32x32(b *testing.B) { benchMatMulBlocked(b, 32, 32, 32) }
func BenchmarkMatMulBlocked_32x96x40(b *testing.B) { benchMatMulBlocked(b, 32, 96, 40) }

func BenchmarkMatMulBlocked32_8x32x64(b *testing.B) {
	_, x, w := benchOperands(rand.New(rand.NewSource(1)))
	out32, x32, w32 := New32(8, 64), to32(x), to32(w)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulBlockedInto32(out32, x32, w32)
	}
}
