// Float32 matrices and the blocked kernels over them — the storage side of
// the float32 serving path. Training and the autodiff tape stay float64;
// Matrix32 exists so serving can hold a converted copy of the weights and
// run the forward pass at half the memory traffic. Only the operations the
// fused inference kernels need are provided; this is deliberately not a
// parallel universe of the full float64 API.
//
// On amd64 CPUs with AVX2+FMA the float32 GEMM dispatches to 8-lane vector
// tiles (f32gemm_amd64.s); everywhere else it runs the same 2×4 scalar
// blocking as the float64 kernel. The two implementations accumulate in the
// same ascending-k order per element — the vector tiles fuse each
// multiply-add (one rounding instead of two), so they are slightly MORE
// accurate than the scalar path, and both sit comfortably inside the k·eps32
// bound the parity tests assert.
package tensor

import (
	"fmt"
	"unsafe"
)

// Matrix32 is a dense row-major matrix of float32 values.
type Matrix32 struct {
	Rows, Cols int
	Data       []float32
}

// New32 returns a zero-initialized float32 matrix with the given shape.
func New32(rows, cols int) *Matrix32 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	return &Matrix32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix32) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// At returns the element at row i, column j.
func (m *Matrix32) At(i, j int) float64 { return float64(m.Data[i*m.Cols+j]) }

// Zero sets all elements of m to zero.
func (m *Matrix32) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// To32 returns a float32 copy of m, rounding every element once. This is
// the bundle-load-time weight conversion: done exactly once per matrix, so
// the serving path never re-rounds.
func (m *Matrix) To32() *Matrix32 {
	out := New32(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = float32(v)
	}
	return out
}

// Round32 returns a float64 copy of m with every element rounded through
// float32 — the reference for "what the float32 weights actually are" in
// parity arguments and tests.
func (m *Matrix) Round32() *Matrix {
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = float64(float32(v))
	}
	return out
}

// overlap32 reports whether two float32 slices share any backing memory.
func overlap32(a, b []float32) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	const sz = unsafe.Sizeof(float32(0))
	alo := uintptr(unsafe.Pointer(&a[0]))
	blo := uintptr(unsafe.Pointer(&b[0]))
	return alo < blo+uintptr(len(b))*sz && blo < alo+uintptr(len(a))*sz
}

// MatMulBlockedInto32 computes a × b into out with the register-blocked
// kernel, float32 throughout. Same contract as MatMulBlockedInto: out must
// be preallocated a.Rows×b.Cols and must not alias an operand; every output
// element is fully overwritten (k=0 zero-fills).
func MatMulBlockedInto32(out, a, b *Matrix32) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulBlockedInto32 shape %dx%d × %dx%d into %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	if overlap32(out.Data, a.Data) || overlap32(out.Data, b.Data) {
		panic("tensor: MatMulBlockedInto32 out aliases an operand")
	}
	m, k, n := a.Rows, a.Cols, b.Cols
	if k == 0 {
		out.Zero()
		return
	}
	if m == 0 || n == 0 {
		return
	}
	matMulBlocked32(out.Data, a.Data, b.Data, m, k, n, n, 0)
}

// MatMulPairInto32 is the float32 fused recurrent-gate kernel, the twin of
// MatMulPairInto: a·b1 and a·b2 packed side by side into out. The float32
// serving path additionally pre-packs its [Uz|Ur] weights at load time, so
// this entry point mostly serves ragged fall-back shapes and tests.
func MatMulPairInto32(out, a, b1, b2 *Matrix32) {
	if a.Cols != b1.Rows || a.Cols != b2.Rows || out.Rows != a.Rows || out.Cols != b1.Cols+b2.Cols {
		panic(fmt.Sprintf("tensor: MatMulPairInto32 shape %dx%d × [%dx%d | %dx%d] into %dx%d",
			a.Rows, a.Cols, b1.Rows, b1.Cols, b2.Rows, b2.Cols, out.Rows, out.Cols))
	}
	if overlap32(out.Data, a.Data) || overlap32(out.Data, b1.Data) || overlap32(out.Data, b2.Data) {
		panic("tensor: MatMulPairInto32 out aliases an operand")
	}
	m, k := a.Rows, a.Cols
	stride := out.Cols
	if k == 0 {
		out.Zero()
		return
	}
	if m == 0 || stride == 0 {
		return
	}
	if b1.Cols > 0 {
		matMulBlocked32(out.Data, a.Data, b1.Data, m, k, b1.Cols, stride, 0)
	}
	if b2.Cols > 0 {
		matMulBlocked32(out.Data, a.Data, b2.Data, m, k, b2.Cols, stride, b1.Cols)
	}
}

// matMulBlocked32 dispatches one strided m×k×n float32 product: the AVX2+FMA
// tile driver when the CPU supports it, otherwise the scalar 2×4 blocking.
func matMulBlocked32(out, a, b []float32, m, k, n, ostride, ooff int) {
	if useAsm {
		matMulAsm32(out, a, b, m, k, n, ostride, ooff)
		return
	}
	matMulScalar32(out, a, b, m, k, n, ostride, ooff)
}

// matMulScalar32 mirrors the float64 matMulBlocked exactly: a 2×4 register
// tile with strength-reduced b offsets, 1×4 and scalar tails, ascending-k
// accumulation per element. It is the portable reference the vector tiles
// are tested against.
func matMulScalar32(out, a, b []float32, m, k, n, ostride, ooff int) {
	i := 0
	for ; i+2 <= m; i += 2 {
		a0 := a[(i+0)*k : (i+0)*k+k]
		a1 := a[(i+1)*k : (i+1)*k+k]
		o0 := out[(i+0)*ostride+ooff : (i+0)*ostride+ooff+n]
		o1 := out[(i+1)*ostride+ooff : (i+1)*ostride+ooff+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			var c00, c01, c02, c03 float32
			var c10, c11, c12, c13 float32
			off := j
			for p := 0; p < k; p++ {
				bp := b[off : off+4 : off+4]
				b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
				av := a0[p]
				c00 += av * b0
				c01 += av * b1
				c02 += av * b2
				c03 += av * b3
				av = a1[p]
				c10 += av * b0
				c11 += av * b1
				c12 += av * b2
				c13 += av * b3
				off += n
			}
			o0[j], o0[j+1], o0[j+2], o0[j+3] = c00, c01, c02, c03
			o1[j], o1[j+1], o1[j+2], o1[j+3] = c10, c11, c12, c13
		}
		for ; j < n; j++ {
			var c0, c1 float32
			off := j
			for p := 0; p < k; p++ {
				bv := b[off]
				c0 += a0[p] * bv
				c1 += a1[p] * bv
				off += n
			}
			o0[j], o1[j] = c0, c1
		}
	}
	for ; i < m; i++ {
		ar := a[i*k : i*k+k]
		or := out[i*ostride+ooff : i*ostride+ooff+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			var c0, c1, c2, c3 float32
			off := j
			for p := 0; p < k; p++ {
				bp := b[off : off+4 : off+4]
				av := ar[p]
				c0 += av * bp[0]
				c1 += av * bp[1]
				c2 += av * bp[2]
				c3 += av * bp[3]
				off += n
			}
			or[j], or[j+1], or[j+2], or[j+3] = c0, c1, c2, c3
		}
		for ; j < n; j++ {
			var c float32
			off := j
			for p := 0; p < k; p++ {
				c += ar[p] * b[off]
				off += n
			}
			or[j] = c
		}
	}
}
