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
// On amd64 with AVX2 the leading columns run in assembly first, one call per
// product in either precision — whole groups of 8 in float64
// (f64gemm_amd64.s: 4×8 tiles and a 1×8 row tail, VMULPD then VADDPD), and
// in float32 (f32gemm_amd64.s) 4×16 and 1×16 tiles with VFMADD plus, when
// n mod 16 ≥ 8, one 8-column group of VMULPS then VADDPS that never fuses —
// so in both only the n mod 8 columns of the ragged right edge are left to
// matMulScalar.
//
// Store mode: MatMulAddInto (float64) adds each element's finished sum to
// what out holds, out + Σ, instead of overwriting it. The float64 tiles and
// matMulScalar both have the mode, so it is the product followed by
// AddInPlace, rounding for rounding, without the temporary — which is how the
// tape's backward gathers a gradient. MatMulTAddInto is that mode with a
// transposed first operand, out + aᵀ × b: the float64 tiles read a through a
// row stride and a k stride, so aᵀ is never packed, and matMulTScalar
// finishes its ragged edge the same way.
//
// Numerics: for each output element the k-accumulation order is IDENTICAL to
// the naive kernel (k ascending), in every kernel of either precision —
// blocking reorders which elements are computed together, never the order of
// additions within one element. In float64 each multiply and each add rounds
// once everywhere, so the blocked kernel and the tile are bit-compatible
// with the naive loop for finite inputs; the float32 16-column tiles fuse
// each multiply-add (one rounding instead of two), so they are slightly MORE
// accurate than the scalar code beside them, and both sit comfortably inside
// the k·eps32 bound the parity tests assert; the float32 8-column group does
// not fuse, so its columns are bit-identical to matMulScalar's. Unlike the naive kernel,
// nothing skips a zero operand: 0·NaN and 0·Inf reach the output. The parity
// tests in internal/core lean on the float64 bit-identity: the tape and the
// predictor share this kernel. Bit-identity between the unfused assembly
// (the float64 tile, the float32 8-column group) and the Go tails is a
// GOAMD64=v1 property: at v3 the compiler may fuse the scalar `c += a*b` into
// an FMA, and that assembly never fuses. go1.24 does not fuse them; CI runs
// the bit-identity tests at v3 as well, so a compiler that starts to fails
// them.
//
// Tails: row and column counts that are not multiples of the block width
// fall through to 1×4 and scalar edge kernels, so ragged shapes (prime
// dimensions, 1×1) are first-class — see blocked_test.go.
package tensor

import "fmt"

// MatMulBlockedInto computes a × b into out with the register-blocked
// kernel. out must be preallocated a.Rows×b.Cols and must not alias either
// operand: the callers hand it arena-recycled scratch, where silent aliasing
// corruption would be near-impossible to trace, so it fails loudly. Every
// element of out is fully overwritten, so stale contents never leak through
// — including the k=0 case, which zero-fills.
func MatMulBlockedInto[T Float](out, a, b *Mat[T]) { matMul(out, a, b, false, false) }

// MatMulAddInto computes out = out + a × b with the same kernels and the same
// contract: each element's sum is finished first and then added to out once,
// exactly the arithmetic of MatMulBlockedInto into a temporary followed by
// out.AddInPlace (k = 0 adds a zero, turning −0 into +0 as that would).
func MatMulAddInto(out, a, b *Matrix) { matMul(out, a, b, true, false) }

// MatMulTAddInto computes out = out + aᵀ × b for a k×m a and a k×n b: bit for
// bit a.TransposeInto followed by MatMulAddInto, without the transposed copy
// — the gradient of a product's right operand, ∂b += aᵀ·∂out.
func MatMulTAddInto(out, a, b *Matrix) { matMul(out, a, b, true, true) }

// matMul is the three entry points: validation, the vector tiles, then the
// portable kernel for the columns they leave. add is only ever true for
// float64, the one precision with the store mode, and ta (a transposed)
// only with add.
func matMul[T Float](out, a, b *Mat[T], add, ta bool) {
	op := "MatMulBlockedInto"
	m, k := a.Rows, a.Cols
	switch {
	case ta:
		op, m, k = "MatMulTAddInto", a.Cols, a.Rows
	case add:
		op = "MatMulAddInto"
	}
	if k != b.Rows || out.Rows != m || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape %dx%d × %dx%d into %dx%d",
			op, a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	if overlap(out.Data, a.Data) || overlap(out.Data, b.Data) {
		panic("tensor: " + op + " out aliases an operand")
	}
	n := b.Cols
	if k == 0 {
		if !add {
			out.Zero()
			return
		}
		for i := range out.Data {
			out.Data[i] += 0
		}
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
		ars, aks := k, 1
		if ta {
			ars, aks = 1, m
		}
		j0 = matMulAsm64(o.Data, any(a).(*Mat[float64]).Data, any(b).(*Mat[float64]).Data, m, k, n, ars, aks, add)
	case *Mat[float32]:
		j0 = matMulAsm32(o.Data, any(a).(*Mat[float32]).Data, any(b).(*Mat[float32]).Data, m, k, n)
	}
	switch {
	case j0 == n:
	case ta:
		matMulTScalar(any(out).(*Mat[float64]).Data, any(a).(*Mat[float64]).Data, any(b).(*Mat[float64]).Data, m, k, n, j0)
	default:
		matMulScalar(out.Data, a.Data, b.Data, m, k, n, j0, add)
	}
}

// MatMulBlockedInto32 is MatMulBlockedInto by the name the frozen benchmark
// harness calls (bench/probes.go).
func MatMulBlockedInto32(out, a, b *Matrix32) { MatMulBlockedInto(out, a, b) }

// matMulScalar is the portable kernel: columns [j0, n) of the m×k×n product
// a × b into out — or, with add, added to out — by 2×4 register tiles with
// 1×4 and scalar tails, ascending-k accumulation per element. All shape and
// aliasing validation happens before it. It is also the reference the vector
// tiles are tested against.
func matMulScalar[T Float](out, a, b []T, m, k, n, j0 int, add bool) {
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
			put4(o0[j:j+4], c00, c01, c02, c03, add)
			put4(o1[j:j+4], c10, c11, c12, c13, add)
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
			put(o0, j, c0, add)
			put(o1, j, c1, add)
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
			put4(or[j:j+4], c0, c1, c2, c3, add)
		}
		for ; j < n; j++ {
			var c T
			off := j
			for p := 0; p < k; p++ {
				c += ar[p] * b[off]
				off += n
			}
			put(or, j, c, add)
		}
	}
}

// matMulTScalar is matMulScalar's add mode for MatMulTAddInto: columns
// [j0, n) of out + aᵀ × b, where a is k×m, by 1×4 tiles and a scalar tail,
// each element's sum begun at zero, gathered k ascending and then added to
// out.
func matMulTScalar(out, a, b []float64, m, k, n, j0 int) {
	for i := 0; i < m; i++ {
		or := out[i*n : i*n+n]
		j := j0
		for ; j+4 <= n; j += 4 {
			var c0, c1, c2, c3 float64
			for p := 0; p < k; p++ {
				bp := b[p*n+j : p*n+j+4 : p*n+j+4]
				av := a[p*m+i]
				c0 += av * bp[0]
				c1 += av * bp[1]
				c2 += av * bp[2]
				c3 += av * bp[3]
			}
			put4(or[j:j+4], c0, c1, c2, c3, true)
		}
		for ; j < n; j++ {
			var c float64
			for p := 0; p < k; p++ {
				c += a[p*m+i] * b[p*n+j]
			}
			put(or, j, c, true)
		}
	}
}

// put stores a finished sum into o[j], or adds it to what is there (out as
// the first operand, as AddInPlace adds).
func put[T Float](o []T, j int, c T, add bool) {
	if add {
		c = o[j] + c
	}
	o[j] = c
}

// put4 is put over four adjacent elements.
func put4[T Float](o []T, c0, c1, c2, c3 T, add bool) {
	o = o[:4]
	if add {
		c0, c1, c2, c3 = o[0]+c0, o[1]+c1, o[2]+c2, o[3]+c3
	}
	o[0], o[1], o[2], o[3] = c0, c1, c2, c3
}
