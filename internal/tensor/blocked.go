// Register-blocked GEMM kernels, unrolled to the SIMD register width. Every
// matrix product in the repository — the training tape's forward and
// backward, the fused predictor in either precision, the baselines — runs
// through MatMulBlockedInto.
//
// A naive kernel streams one output row at a time with a read-modify-write
// of the output slice on every multiply-add — one load, one FMA-able op, one
// store per element, so the CPU's superscalar units sit mostly idle (it
// survives as the bit-exact reference in blocked_test.go). The portable
// blocked kernel here, matMulScalar, processes a 2×4 output tile per
// micro-kernel iteration: 8 independent accumulators live in registers for
// the whole k-loop, every loaded b value is reused twice and every a value
// four times, and the store traffic drops from k·8 to 8 per tile. Four lanes
// is the float64 SIMD register width (one AVX2 register, two NEON registers);
// two rows is as tall as the tile can grow before the accumulators plus the
// four live b values exceed the 16 vector registers the compiler schedules
// into — a 4×4 tile measurably loses to 2×4 from spilling. The b-row offset
// is strength-reduced (off += n) so the inner loop carries no multiply.
//
// On amd64 with AVX2 the leading whole tile-widths of columns run in
// assembly first — 8 columns of float64 (f64gemm_amd64.s: a 4×8 tile and a
// 1×8 row tail, VMULPD then VADDPD), 16 of float32 (f32gemm_amd64.s: 4×16
// and 1×16, VFMADD) — and matMulScalar finishes the ragged right edge.
//
// Numerics: for each output element the k-accumulation order is IDENTICAL to
// the naive kernel (k ascending), in every kernel of either precision —
// blocking reorders which elements are computed together, never the order of
// additions within one element. In float64 each multiply and each add rounds
// once everywhere, so the blocked kernel and the tile are bit-compatible
// with the naive loop for finite inputs; the float32 tiles fuse each
// multiply-add (one rounding instead of two), so they are slightly MORE
// accurate than the scalar code beside them, and both sit comfortably inside
// the k·eps32 bound the parity tests assert. Unlike the naive kernel,
// nothing skips a zero operand: 0·NaN and 0·Inf reach the output. The parity
// tests in internal/core lean on the float64 bit-identity: the tape and the
// predictor share this kernel. Bit-identity between the float64 tile and the
// Go tails is a GOAMD64=v1 property: at v3 the compiler may fuse the scalar
// `c += a*b` into an FMA, and the tile never fuses.
//
// Tails: row and column counts that are not multiples of the block width
// fall through to 1×4 and scalar edge kernels, so ragged shapes (prime
// dimensions, 1×1) are first-class — see blocked_test.go.
package tensor

import "fmt"

// BlockLanes is the micro-kernel tile width: 4 float64 lanes (one AVX2
// register). Exported so tests can probe non-multiple "tail" shapes.
const BlockLanes = 4

// MatMul returns a × b, where a is r×k and b is k×c.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dims %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	MatMulBlockedInto(out, a, b)
	return out
}

// MatMulBlockedInto computes a × b into out with the register-blocked
// kernel. out must be preallocated a.Rows×b.Cols and must not alias either
// operand: the callers hand it arena-recycled scratch, where silent aliasing
// corruption would be near-impossible to trace, so it fails loudly. Every
// element of out is fully overwritten, so stale contents never leak through
// — including the k=0 case, which zero-fills.
func MatMulBlockedInto[T Float](out, a, b *Mat[T]) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulBlockedInto shape %dx%d × %dx%d into %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	if overlap(out.Data, a.Data) || overlap(out.Data, b.Data) {
		panic("tensor: MatMulBlockedInto out aliases an operand")
	}
	m, k, n := a.Rows, a.Cols, b.Cols
	if k == 0 {
		out.Zero()
		return
	}
	if m == 0 || n == 0 {
		return
	}
	// The vector tiles take the leading whole tile-widths of columns where
	// they exist; the switch is on the pointer, which an interface holds
	// without allocating.
	j0 := 0
	switch o := any(out).(type) {
	case *Mat[float64]:
		j0 = matMulAsm64(o.Data, any(a).(*Mat[float64]).Data, any(b).(*Mat[float64]).Data, m, k, n)
	case *Mat[float32]:
		j0 = matMulAsm32(o.Data, any(a).(*Mat[float32]).Data, any(b).(*Mat[float32]).Data, m, k, n)
	}
	if j0 < n {
		matMulScalar(out.Data, a.Data, b.Data, m, k, n, j0)
	}
}

// MatMulBlockedInto32 is MatMulBlockedInto by the name the frozen benchmark
// harness calls (bench/probes.go).
func MatMulBlockedInto32(out, a, b *Matrix32) { MatMulBlockedInto(out, a, b) }

// matMulScalar is the portable kernel: columns [j0, n) of the m×k×n product
// a × b into out, by 2×4 register tiles with 1×4 and scalar tails,
// ascending-k accumulation per element. All shape and aliasing validation
// happens before it. It is also the reference the vector tiles are tested
// against.
func matMulScalar[T Float](out, a, b []T, m, k, n, j0 int) {
	i := 0
	for ; i+2 <= m; i += 2 {
		a0 := a[(i+0)*k : (i+0)*k+k]
		a1 := a[(i+1)*k : (i+1)*k+k]
		o0 := out[(i+0)*n : (i+0)*n+n]
		o1 := out[(i+1)*n : (i+1)*n+n]
		j := j0
		for ; j+4 <= n; j += 4 {
			var c00, c01, c02, c03 T
			var c10, c11, c12, c13 T
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
		for ; j < n; j++ { // column tail: 2 rows × 1 lane
			var c0, c1 T
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
	for ; i < m; i++ { // row tail: 1 row, 4 lanes then scalar
		ar := a[i*k : i*k+k]
		or := out[i*n : i*n+n]
		j := j0
		for ; j+4 <= n; j += 4 {
			var c0, c1, c2, c3 T
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
			var c T
			off := j
			for p := 0; p < k; p++ {
				c += ar[p] * b[off]
				off += n
			}
			or[j] = c
		}
	}
}
