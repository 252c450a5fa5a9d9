package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// fromSlice wraps data (row-major) in a Matrix, not copied.
func fromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: fromSlice got %d values for %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// fromRows builds a matrix from equal-length rows, copying them.
func fromRows(rows [][]float64) *Matrix {
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

// sliceCols returns the column range [from, to) of m as a new matrix.
func (m *Mat[T]) sliceCols(from, to int) *Mat[T] {
	out := newMat[T](m.Rows, to-from)
	m.SliceColsInto(out, from, to)
	return out
}

// sliceRows returns the row range [from, to) of m as a new matrix.
func (m *Mat[T]) sliceRows(from, to int) *Mat[T] {
	out := newMat[T](to-from, m.Cols)
	copy(out.Data, m.Data[from*m.Cols:to*m.Cols])
	return out
}

// equal reports whether a and b have the same shape and all elements within
// tol of each other.
func equal(a, b *Matrix, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i, v := range a.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// mul returns a × b.
func mul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	MatMulBlockedInto(out, a, b)
	return out
}

// transpose returns mᵀ through TransposeInto.
func transpose[T Float](m *Mat[T]) *Mat[T] {
	t := newMat[T](m.Cols, m.Rows)
	m.TransposeInto(t)
	return t
}

// maxAbs returns the largest absolute element value (0 for empty).
func maxAbs[T Float](m *Mat[T]) float64 {
	mx := 0.0
	for _, v := range m.Data {
		if a := math.Abs(float64(v)); a > mx {
			mx = a
		}
	}
	return mx
}

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %v", m)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d not zero: %v", i, v)
		}
	}
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7.5)
	if m.At(1, 2) != 7.5 {
		t.Fatalf("At/Set roundtrip failed")
	}
	r := m.Row(1)
	if r[2] != 7.5 {
		t.Fatalf("Row aliasing failed")
	}
	r[0] = -1
	if m.At(1, 0) != -1 {
		t.Fatalf("Row must alias storage")
	}
}

func TestFromRowsAndVectors(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("FromRows layout wrong: %v", m)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := fromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	c := mul(a, b)
	want := fromRows([][]float64{{58, 64}, {139, 154}})
	if !equal(c, want, 1e-12) {
		t.Fatalf("MatMul got %v want %v", c, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(4, 4)
	a.RandNormal(rng, 1)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(i, i, 1)
	}
	if !equal(mul(a, id), a, 1e-12) || !equal(mul(id, a), a, 1e-12) {
		t.Fatalf("identity multiplication should be a no-op")
	}
}

func TestMatMulInto(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{5, 6}, {7, 8}})
	out := New(2, 2)
	fill(out, 99) // stale values must be cleared
	MatMulInto(out, a, b)
	if !equal(out, mul(a, b), 1e-12) {
		t.Fatalf("MatMulInto mismatch: %v", out)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := New(3, 5)
	m.RandNormal(rng, 1)
	if !equal(transpose(transpose(m)), m, 0) {
		t.Fatalf("transpose should be an involution")
	}
	if transpose(m).At(4, 2) != m.At(2, 4) {
		t.Fatalf("transpose element mapping wrong")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := fromRows([][]float64{{1, -2}, {3, 4}})
	b := fromRows([][]float64{{5, 6}, {-7, 8}})
	out := New(2, 2)
	if AddInto(out, a, b); out.Data[0] != 6 || out.Data[3] != 12 {
		t.Fatalf("Add wrong: %v", out.Data)
	}
	if SubInto(out, a, b); out.Data[1] != -8 {
		t.Fatalf("Sub wrong: %v", out.Data)
	}
	if MulInto(out, a, b); out.Data[2] != -21 {
		t.Fatalf("Mul wrong: %v", out.Data)
	}
	if ScaleInto(out, a, 2); out.Data[0] != 2 || out.Data[1] != -4 {
		t.Fatalf("Scale wrong: %v", out.Data)
	}
}

func TestAddRowBroadcast(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{10, 20}})
	got := New(2, 2)
	AddRowBroadcastInto(got, m, b)
	want := fromRows([][]float64{{11, 22}, {13, 24}})
	if !equal(got, want, 0) {
		t.Fatalf("broadcast wrong: %v", got)
	}
}

func TestApplySumMeanDot(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {3, 4}})
	sq := New(2, 2)
	ApplyInto(sq, m, func(x float64) float64 { return x * x })
	if sq.Sum() != 30 {
		t.Fatalf("Apply/Sum wrong: %v", sq.Sum())
	}
}

func TestConcatAndSlice(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{5}, {6}})
	c := ConcatCols(a, b)
	if c.Cols != 3 || c.At(0, 2) != 5 || c.At(1, 2) != 6 {
		t.Fatalf("ConcatCols wrong: %v", c)
	}
	if !equal(c.sliceCols(0, 2), a, 0) {
		t.Fatalf("SliceCols should recover left operand")
	}
	if !equal(c.sliceCols(2, 3), b, 0) {
		t.Fatalf("SliceCols should recover right operand")
	}
	if !equal(c.sliceRows(1, 2), fromRows([][]float64{{3, 4, 6}}), 0) {
		t.Fatalf("SliceRows wrong")
	}
}

func TestGatherRows(t *testing.T) {
	m := fromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	g := New(3, 2)
	GatherRowsInto(g, m, []int{2, 0, 2})
	want := fromRows([][]float64{{3, 3}, {1, 1}, {3, 3}})
	if !equal(g, want, 0) {
		t.Fatalf("GatherRows wrong: %v", g)
	}
}

func TestGatherRowsPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	GatherRowsInto(New(1, 2), New(2, 2), []int{3})
}

func TestInPlaceOps(t *testing.T) {
	m := fromRows([][]float64{{1, 2}})
	m.AddInPlace(fromRows([][]float64{{3, 4}}))
	if m.At(0, 1) != 6 {
		t.Fatalf("AddInPlace wrong")
	}
	m.ScaleInPlace(0.5)
	if m.At(0, 0) != 2 {
		t.Fatalf("ScaleInPlace wrong")
	}
	m.Zero()
	if m.Sum() != 0 {
		t.Fatalf("Zero wrong")
	}
}

func TestInitializers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := New(50, 40)
	m.GlorotUniform(rng)
	limit := math.Sqrt(6.0 / 90.0)
	if maxAbs(m) > limit {
		t.Fatalf("Glorot values exceed limit %v: %v", limit, maxAbs(m))
	}
	if maxAbs(m) == 0 {
		t.Fatalf("Glorot left matrix zeroed")
	}
	n := New(10, 10)
	n.RandUniform(rng, 0.5)
	if maxAbs(n) > 0.5 {
		t.Fatalf("RandUniform exceeded scale")
	}
}

func TestMaxAbs(t *testing.T) {
	m := fromRows([][]float64{{-3, 2}})
	if maxAbs(m) != 3 {
		t.Fatalf("maxAbs wrong")
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ for random shapes and values.
func TestMatMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k, c := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := New(r, k)
		a.RandNormal(rng, 1)
		b := New(k, c)
		b.RandNormal(rng, 1)
		return equal(transpose(mul(a, b)), mul(transpose(b), transpose(a)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: matrix multiplication distributes over addition.
func TestMatMulDistributive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k, c := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := New(r, k)
		a.RandNormal(rng, 1)
		b := New(k, c)
		b.RandNormal(rng, 1)
		d := New(k, c)
		d.RandNormal(rng, 1)
		sum, right := New(k, c), New(r, c)
		AddInto(sum, b, d)
		AddInto(right, mul(a, b), mul(a, d))
		return equal(mul(a, sum), right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestShapePanics(t *testing.T) {
	cases := []func(){
		func() { MatMulBlockedInto(New(2, 3), New(2, 3), New(2, 3)) },
		func() { AddInto(New(1, 2), New(1, 2), New(2, 1)) },
		func() { ConcatCols(New(1, 2), New(2, 2)) },
		func() { New(2, 2).SliceColsInto(New(2, 4), 1, 5) },
		func() { AddRowBroadcastInto(New(2, 2), New(2, 2), New(2, 2)) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// MatMulInto writes into out while still reading a and b, so an out that
// shares backing storage with an operand silently corrupts the product. The
// overlap check must catch every aliasing shape the arena can produce.
func TestMatMulIntoAliasPanics(t *testing.T) {
	backing := make([]float64, 16)
	a := fromSlice(2, 2, backing[:4])
	b := fromSlice(2, 2, backing[4:8])
	cases := []struct {
		name string
		out  *Matrix
	}{
		{"out is a", a},
		{"out is b", b},
		{"out overlaps a's tail", fromSlice(2, 2, backing[2:6])},
		{"out overlaps b's head", fromSlice(2, 2, backing[6:10])},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected alias panic", tc.name)
				}
			}()
			MatMulInto(tc.out, a, b)
		}()
	}
	// Disjoint views carved from the SAME backing array must NOT be flagged:
	// this is exactly how the inference arena hands out scratch.
	out := fromSlice(2, 2, backing[8:12])
	MatMulInto(out, a, b)
	want := mul(a, b)
	if !equal(out, want, 0) {
		t.Fatalf("disjoint same-backing MatMulInto mismatch: %v vs %v", out, want)
	}
}

func TestMulInto(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := New(3, 4)
	a.RandNormal(rng, 1)
	b := New(3, 4)
	b.RandNormal(rng, 1)
	want := New(3, 4)
	for i := range want.Data {
		want.Data[i] = a.Data[i] * b.Data[i]
	}
	out := New(3, 4)
	MulInto(out, a, b)
	if !equal(out, want, 0) {
		t.Fatalf("MulInto mismatch")
	}
	// Unlike MatMulInto, in-place Hadamard is well-defined.
	MulInto(a, a, b)
	if !equal(a, want, 0) {
		t.Fatalf("in-place MulInto mismatch")
	}
}
