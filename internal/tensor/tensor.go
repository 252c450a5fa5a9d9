// Package tensor provides dense matrices and the linear-algebra primitives
// used by the autodiff engine, the fused predictor and the classical
// baselines.
//
// There is one matrix type, Mat[T], over float64 or float32, stored in
// row-major order; Matrix and Matrix32 are its two instantiations by name.
// Training, the tape and the baselines are float64 throughout; float32 exists
// so serving can hold a converted copy of the weights and run the forward
// pass at half the memory traffic. There is one validated matrix product,
// MatMulBlockedInto (blocked.go), and one bump allocator for scratch
// matrices, Arena[T] (arena.go), under both the tape and the predictor.
//
// Operations that could only fail through programmer error (shape
// mismatches) panic with a descriptive message, mirroring how the standard
// library treats misuse (e.g. slice bounds); recoverable conditions return
// errors.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"unsafe"
)

// Float is the element types a matrix can hold. The two are named exactly
// (no ~) so the kernels can tell them apart by a type switch on the matrix
// pointer.
type Float interface{ float32 | float64 }

// Mat is a dense row-major matrix.
type Mat[T Float] struct {
	Rows, Cols int
	Data       []T
}

// Matrix is the float64 matrix of training, the tape and the baselines;
// Matrix32 the float32 one of the frozen serving path.
type (
	Matrix   = Mat[float64]
	Matrix32 = Mat[float32]
)

// New returns a zero-initialized float64 matrix with the given shape.
func New(rows, cols int) *Matrix { return newMat[float64](rows, cols) }

// New32 returns a zero-initialized float32 matrix with the given shape.
func New32(rows, cols int) *Matrix32 { return newMat[float32](rows, cols) }

func newMat[T Float](rows, cols int) *Mat[T] {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	return &Mat[T]{Rows: rows, Cols: cols, Data: make([]T, rows*cols)}
}

// FromSlice wraps data (row-major) in a Matrix. The slice is used directly,
// not copied; len(data) must equal rows*cols.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice got %d values for %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// FromRows builds a matrix from a slice of equal-length rows, copying them.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("tensor: FromRows ragged row %d: %d != %d", i, len(r), cols))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// At returns the element at row i, column j.
func (m *Mat[T]) At(i, j int) T { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Mat[T]) Set(i, j int, v T) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Mat[T]) Row(i int) []T { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Mat[T]) Clone() *Mat[T] {
	c := newMat[T](m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets all elements of m to zero.
func (m *Mat[T]) Zero() { clear(m.Data) }

// SameShape reports whether m and o have identical dimensions.
func (m *Mat[T]) SameShape(o *Mat[T]) bool { return m.Rows == o.Rows && m.Cols == o.Cols }

func (m *Mat[T]) shapeCheck(o *Mat[T], op string) {
	if !m.SameShape(o) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// String implements fmt.Stringer with a compact shape-prefixed rendering.
func (m *Mat[T]) String() string {
	return fmt.Sprintf("Matrix(%dx%d)%v", m.Rows, m.Cols, m.Data)
}

// overlap reports whether two slices share any backing memory. The pointer
// comparison covers only the addressable [0,len) ranges, so disjoint views
// carved from one arena chunk are correctly reported as non-overlapping.
func overlap[T Float](a, b []T) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sz := unsafe.Sizeof(a[0])
	alo := uintptr(unsafe.Pointer(&a[0]))
	blo := uintptr(unsafe.Pointer(&b[0]))
	return alo < blo+uintptr(len(b))*sz && blo < alo+uintptr(len(a))*sz
}

// Transpose returns mᵀ.
func (m *Mat[T]) Transpose() *Mat[T] {
	t := newMat[T](m.Cols, m.Rows)
	m.TransposeInto(t)
	return t
}

// TransposeInto writes mᵀ into dst, which must be m.Cols×m.Rows and must not
// alias m; every element of dst is overwritten.
func (m *Mat[T]) TransposeInto(dst *Mat[T]) {
	if dst.Rows != m.Cols || dst.Cols != m.Rows {
		panic(fmt.Sprintf("tensor: TransposeInto %dx%d into %dx%d", m.Rows, m.Cols, dst.Rows, dst.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			dst.Data[j*m.Rows+i] = v
		}
	}
}

// The elementwise operations write a preallocated out — every element, so
// recycled storage is fine. Unlike the matrix products, aliasing is safe for
// them (each element depends only on its own position), so out may be an
// operand for an in-place result.

// AddInto computes a + b into out.
func AddInto(out, a, b *Matrix) {
	a.shapeCheck(b, "Add")
	a.shapeCheck(out, "Add")
	for i, v := range a.Data {
		out.Data[i] = v + b.Data[i]
	}
}

// SubInto computes a − b into out.
func SubInto(out, a, b *Matrix) {
	a.shapeCheck(b, "Sub")
	a.shapeCheck(out, "Sub")
	for i, v := range a.Data {
		out.Data[i] = v - b.Data[i]
	}
}

// MulInto computes the Hadamard product a ⊙ b into out.
func MulInto(out, a, b *Matrix) {
	a.shapeCheck(b, "MulInto")
	a.shapeCheck(out, "MulInto")
	for i, v := range a.Data {
		out.Data[i] = v * b.Data[i]
	}
}

// ScaleInto computes s·m into out.
func ScaleInto(out, m *Matrix, s float64) {
	m.shapeCheck(out, "Scale")
	for i, v := range m.Data {
		out.Data[i] = v * s
	}
}

// AddInPlace adds o into m.
func (m *Mat[T]) AddInPlace(o *Mat[T]) {
	m.shapeCheck(o, "AddInPlace")
	for i, v := range o.Data {
		m.Data[i] += v
	}
}

// ScaleInPlace multiplies m by s in place.
func (m *Mat[T]) ScaleInPlace(s T) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AddRowBroadcastInto adds the 1×cols row vector b to every row of m, into
// out.
func AddRowBroadcastInto(out, m, b *Matrix) {
	if b.Rows != 1 || b.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowBroadcast %dx%d + %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	m.shapeCheck(out, "AddRowBroadcast")
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		orow := out.Row(i)
		for j, v := range row {
			orow[j] = v + b.Data[j]
		}
	}
}

// ApplyInto computes f of every element of m into out.
func ApplyInto(out, m *Matrix, f func(float64) float64) {
	m.shapeCheck(out, "Apply")
	for i, v := range m.Data {
		out.Data[i] = f(v)
	}
}

// Sum returns the sum of all elements.
func (m *Mat[T]) Sum() T {
	var s T
	for _, v := range m.Data {
		s += v
	}
	return s
}

// MaxAbs returns the largest absolute element value (0 for empty).
func (m *Mat[T]) MaxAbs() float64 {
	mx := 0.0
	for _, v := range m.Data {
		if a := math.Abs(float64(v)); a > mx {
			mx = a
		}
	}
	return mx
}

// ConcatCols returns the horizontal concatenation [a | b]; the operands
// must have equal row counts.
func ConcatCols(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: ConcatCols rows %d vs %d", a.Rows, b.Rows))
	}
	out := New(a.Rows, a.Cols+b.Cols)
	ConcatColsInto(out, a, b)
	return out
}

// ConcatColsInto writes [a | b] into out, which must be a.Rows×(a.Cols+b.Cols).
func ConcatColsInto(out, a, b *Matrix) {
	if a.Rows != b.Rows || out.Rows != a.Rows || out.Cols != a.Cols+b.Cols {
		panic(fmt.Sprintf("tensor: ConcatCols %dx%d | %dx%d into %dx%d", a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		copy(out.Row(i)[:a.Cols], a.Row(i))
		copy(out.Row(i)[a.Cols:], b.Row(i))
	}
}

// SliceCols returns the column range [from, to) of m as a new matrix.
func (m *Mat[T]) SliceCols(from, to int) *Mat[T] {
	if from < 0 || to > m.Cols || from > to {
		panic(fmt.Sprintf("tensor: SliceCols [%d,%d) of %d cols", from, to, m.Cols))
	}
	out := newMat[T](m.Rows, to-from)
	m.SliceColsInto(out, from, to)
	return out
}

// SliceColsInto copies the column range [from, to) of m into out, which
// must be m.Rows×(to−from).
func (m *Mat[T]) SliceColsInto(out *Mat[T], from, to int) {
	if from < 0 || to > m.Cols || from > to || out.Rows != m.Rows || out.Cols != to-from {
		panic(fmt.Sprintf("tensor: SliceCols [%d,%d) of %dx%d into %dx%d", from, to, m.Rows, m.Cols, out.Rows, out.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i)[from:to])
	}
}

// SliceRows returns the row range [from, to) of m as a new matrix.
func (m *Mat[T]) SliceRows(from, to int) *Mat[T] {
	if from < 0 || to > m.Rows || from > to {
		panic(fmt.Sprintf("tensor: SliceRows [%d,%d) of %d rows", from, to, m.Rows))
	}
	out := newMat[T](to-from, m.Cols)
	copy(out.Data, m.Data[from*m.Cols:to*m.Cols])
	return out
}

// GatherRowsInto copies m.Row(idx[i]) into row i of out, which must be
// len(idx)×m.Cols; every element of out is overwritten.
func GatherRowsInto(out, m *Matrix, idx []int) {
	if out.Rows != len(idx) || out.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: GatherRowsInto %d rows of %d cols into %dx%d", len(idx), m.Cols, out.Rows, out.Cols))
	}
	for i, r := range idx {
		if r < 0 || r >= m.Rows {
			panic(fmt.Sprintf("tensor: GatherRows index %d out of %d rows", r, m.Rows))
		}
		copy(out.Row(i), m.Row(r))
	}
}

// RandUniform fills m with samples from U(−scale, scale).
func (m *Mat[T]) RandUniform(rng *rand.Rand, scale float64) {
	for i := range m.Data {
		m.Data[i] = T((rng.Float64()*2 - 1) * scale)
	}
}

// RandNormal fills m with samples from N(0, std²).
func (m *Mat[T]) RandNormal(rng *rand.Rand, std float64) {
	for i := range m.Data {
		m.Data[i] = T(rng.NormFloat64() * std)
	}
}

// GlorotUniform fills m with the Glorot/Xavier uniform initialization for a
// weight matrix of shape fanIn×fanOut.
func (m *Mat[T]) GlorotUniform(rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(m.Rows+m.Cols))
	m.RandUniform(rng, limit)
}

// Equal reports whether a and b have the same shape and all elements within
// tol of each other.
func Equal(a, b *Matrix, tol float64) bool {
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
