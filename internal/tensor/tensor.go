// Package tensor provides dense float64 matrices and the linear-algebra
// primitives used by the autodiff engine and the classical baselines.
//
// A Matrix is stored in row-major order. Operations that could only fail
// through programmer error (shape mismatches) panic with a descriptive
// message, mirroring how the standard library treats misuse (e.g. slice
// bounds); recoverable conditions return errors.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"unsafe"
)

// Matrix is a dense row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zero-initialized matrix with the given shape.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
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

// RowVector returns a 1×len(v) matrix copying v.
func RowVector(v []float64) *Matrix {
	m := New(1, len(v))
	copy(m.Data, v)
	return m
}

// ColVector returns a len(v)×1 matrix copying v.
func ColVector(v []float64) *Matrix {
	m := New(len(v), 1)
	copy(m.Data, v)
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets all elements of m to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element of m to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// SameShape reports whether m and o have identical dimensions.
func (m *Matrix) SameShape(o *Matrix) bool { return m.Rows == o.Rows && m.Cols == o.Cols }

func (m *Matrix) shapeCheck(o *Matrix, op string) {
	if !m.SameShape(o) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// String implements fmt.Stringer with a compact shape-prefixed rendering.
func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d)%v", m.Rows, m.Cols, m.Data)
}

// overlap reports whether two float64 slices share any backing memory. The
// pointer comparison covers only the addressable [0,len) ranges, so disjoint
// views carved from one arena chunk are correctly reported as non-overlapping.
func overlap(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	const sz = unsafe.Sizeof(float64(0))
	alo := uintptr(unsafe.Pointer(&a[0]))
	blo := uintptr(unsafe.Pointer(&b[0]))
	return alo < blo+uintptr(len(b))*sz && blo < alo+uintptr(len(a))*sz
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	t := New(m.Cols, m.Rows)
	m.TransposeInto(t)
	return t
}

// TransposeInto writes mᵀ into dst, which must be m.Cols×m.Rows and must not
// alias m; every element of dst is overwritten.
func (m *Matrix) TransposeInto(dst *Matrix) {
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

// The elementwise operations come in pairs: an Into form that writes a
// preallocated out — every element, so recycled storage is fine — and an
// allocating form on top of it. Unlike the matrix products, aliasing is safe
// for the elementwise Into forms (each element depends only on its own
// position), so out may be an operand for an in-place result.

// Add returns a + b elementwise.
func Add(a, b *Matrix) *Matrix {
	out := New(a.Rows, a.Cols)
	AddInto(out, a, b)
	return out
}

// AddInto computes a + b into out.
func AddInto(out, a, b *Matrix) {
	a.shapeCheck(b, "Add")
	a.shapeCheck(out, "Add")
	for i, v := range a.Data {
		out.Data[i] = v + b.Data[i]
	}
}

// Sub returns a − b elementwise.
func Sub(a, b *Matrix) *Matrix {
	out := New(a.Rows, a.Cols)
	SubInto(out, a, b)
	return out
}

// SubInto computes a − b into out.
func SubInto(out, a, b *Matrix) {
	a.shapeCheck(b, "Sub")
	a.shapeCheck(out, "Sub")
	for i, v := range a.Data {
		out.Data[i] = v - b.Data[i]
	}
}

// Mul returns the Hadamard (elementwise) product a ⊙ b.
func Mul(a, b *Matrix) *Matrix {
	out := New(a.Rows, a.Cols)
	MulInto(out, a, b)
	return out
}

// MulInto computes the Hadamard product a ⊙ b into out.
func MulInto(out, a, b *Matrix) {
	a.shapeCheck(b, "MulInto")
	a.shapeCheck(out, "MulInto")
	for i, v := range a.Data {
		out.Data[i] = v * b.Data[i]
	}
}

// Scale returns s·m.
func Scale(m *Matrix, s float64) *Matrix {
	out := New(m.Rows, m.Cols)
	ScaleInto(out, m, s)
	return out
}

// ScaleInto computes s·m into out.
func ScaleInto(out, m *Matrix, s float64) {
	m.shapeCheck(out, "Scale")
	for i, v := range m.Data {
		out.Data[i] = v * s
	}
}

// AddInPlace adds o into m.
func (m *Matrix) AddInPlace(o *Matrix) {
	m.shapeCheck(o, "AddInPlace")
	for i, v := range o.Data {
		m.Data[i] += v
	}
}

// ScaleInPlace multiplies m by s in place.
func (m *Matrix) ScaleInPlace(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AddRowBroadcast returns m with the 1×cols row vector b added to every row.
func AddRowBroadcast(m, b *Matrix) *Matrix {
	out := New(m.Rows, m.Cols)
	AddRowBroadcastInto(out, m, b)
	return out
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

// Apply returns f applied elementwise to m.
func Apply(m *Matrix, f func(float64) float64) *Matrix {
	out := New(m.Rows, m.Cols)
	ApplyInto(out, m, f)
	return out
}

// ApplyInto computes f of every element of m into out.
func ApplyInto(out, m *Matrix, f func(float64) float64) {
	m.shapeCheck(out, "Apply")
	for i, v := range m.Data {
		out.Data[i] = f(v)
	}
}

// Sum returns the sum of all elements.
func (m *Matrix) Sum() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v
	}
	return s
}

// Mean returns the mean of all elements; it is 0 for an empty matrix.
func (m *Matrix) Mean() float64 {
	if len(m.Data) == 0 {
		return 0
	}
	return m.Sum() / float64(len(m.Data))
}

// MaxAbs returns the largest absolute element value (0 for empty).
func (m *Matrix) MaxAbs() float64 {
	mx := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Dot returns the inner product of two equal-shape matrices viewed as
// flattened vectors.
func Dot(a, b *Matrix) float64 {
	a.shapeCheck(b, "Dot")
	s := 0.0
	for i, v := range a.Data {
		s += v * b.Data[i]
	}
	return s
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
func (m *Matrix) SliceCols(from, to int) *Matrix {
	if from < 0 || to > m.Cols || from > to {
		panic(fmt.Sprintf("tensor: SliceCols [%d,%d) of %d cols", from, to, m.Cols))
	}
	out := New(m.Rows, to-from)
	m.SliceColsInto(out, from, to)
	return out
}

// SliceColsInto copies the column range [from, to) of m into out, which
// must be m.Rows×(to−from).
func (m *Matrix) SliceColsInto(out *Matrix, from, to int) {
	if from < 0 || to > m.Cols || from > to || out.Rows != m.Rows || out.Cols != to-from {
		panic(fmt.Sprintf("tensor: SliceCols [%d,%d) of %dx%d into %dx%d", from, to, m.Rows, m.Cols, out.Rows, out.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i)[from:to])
	}
}

// SliceRows returns the row range [from, to) of m as a new matrix.
func (m *Matrix) SliceRows(from, to int) *Matrix {
	if from < 0 || to > m.Rows || from > to {
		panic(fmt.Sprintf("tensor: SliceRows [%d,%d) of %d rows", from, to, m.Rows))
	}
	out := New(to-from, m.Cols)
	copy(out.Data, m.Data[from*m.Cols:to*m.Cols])
	return out
}

// GatherRows returns a matrix whose i-th row is m.Row(idx[i]).
func GatherRows(m *Matrix, idx []int) *Matrix {
	out := New(len(idx), m.Cols)
	GatherRowsInto(out, m, idx)
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
func (m *Matrix) RandUniform(rng *rand.Rand, scale float64) {
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * scale
	}
}

// RandNormal fills m with samples from N(0, std²).
func (m *Matrix) RandNormal(rng *rand.Rand, std float64) {
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
}

// GlorotUniform fills m with the Glorot/Xavier uniform initialization for a
// weight matrix of shape fanIn×fanOut.
func (m *Matrix) GlorotUniform(rng *rand.Rand) {
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
