//go:build amd64

package tensor

import "math"

// Feature detection and the Go-side drivers for the vector kernels: the
// GEMM tiles, AVX2+FMA float32 (f32gemm_amd64.s) and AVX2 float64
// (f64gemm_amd64.s), the logistic in both precisions (sigmoid32_amd64.s,
// sigmoid64_amd64.s), the GRU elementwise kernels in both precisions
// (gate32_amd64.s, gate64_amd64.s) and the float64 training step's
// elementwise kernels (train64_amd64.s).
// Each GEMM is one assembly call per product: float32 walks 4×16 and 1×16
// tiles plus one 8-column group that does not fuse, float64 4×8 and 1×8
// tiles; the columns past them (n mod 8 in either precision) run through
// matMulScalar, which produces the same ascending-k accumulation per
// element.

// useAsm is true when the CPU and OS support AVX2 and FMA; every vector
// kernel of either precision sits behind it. Tests may flip it to force the
// scalar paths; it is otherwise set once at init.
var useAsm = detectAVX2FMA()

//go:noescape
func f32cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func f32xgetbv() (eax, edx uint32)

//go:noescape
func gemmf32(out, a, b *float32, m, k, cols, n uintptr)

//go:noescape
func sigmoidAdd8f32(dst, a, b *float32, n uintptr)

//go:noescape
func addReLU8f32(dst, a, b *float32, n uintptr)

//go:noescape
func gateMul8f32(dst, r, h *float32, rows, cols, width uintptr)

//go:noescape
func gateBlend8f32(h, z, c *float32, rows, cols, width uintptr)

//go:noescape
func sigmoidAdd4f64(dst, a, b *float64, bstep, n uintptr) (done uintptr)

//go:noescape
func gemmf64(out, a, b *float64, m, k, cols, n, ars, aks, add uintptr)

//go:noescape
func addReLU4f64(dst, a, b *float64, n uintptr)

//go:noescape
func gateMul4f64(dst, r, h *float64, rows, cols, width uintptr)

//go:noescape
func gateBlend4f64(h, z, c *float64, rows, cols, width uintptr)

//go:noescape
func relu4f64(dst, x *float64, n uintptr)

//go:noescape
func gruBackUpdate4f64(dhp, dz, dc, dh, z, hp, c, pre *float64, rows, cols, width, mode uintptr)

//go:noescape
func gruBackReset4f64(dhp, dr, drh, r, hp *float64, rows, cols, width, mode uintptr)

//go:noescape
func colSum4f64(acc, m *float64, rows, cols, width uintptr)

//go:noescape
func adam4f64(p, grad, m, v *float64, n uintptr, c *AdamCoef)

// detectAVX2FMA checks CPU support for FMA3 and AVX2 plus OS support for
// saving YMM state (OSXSAVE + XCR0), the full precondition for running the
// vector tiles.
func detectAVX2FMA() bool {
	maxLeaf, _, _, _ := f32cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := f32cpuid(1, 0)
	const fma = 1 << 12
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&fma == 0 || ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := f32xgetbv(); xcr0&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, ebx7, _, _ := f32cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// matMulAsm32 runs the float32 walk — strips, row tail and the 8-column
// group past the last whole 16 — in one assembly call and returns how many
// leading columns it finished, n rounded down to a multiple of 8 (0 without
// AVX2+FMA); matMulScalar takes the columns from there. Callers guarantee
// k ≥ 1, m ≥ 1, n ≥ 1 and no aliasing.
func matMulAsm32(out, a, b []float32, m, k, n int) int {
	cols := n &^ 7
	if !useAsm || cols == 0 {
		return 0
	}
	gemmf32(&out[0], &a[0], &b[0], uintptr(m), uintptr(k), uintptr(cols), uintptr(n))
	return cols
}

// matMulAsm64 runs the float64 tiles over every whole group of 8 columns —
// the whole walk, strips and row tail, in one assembly call — overwriting
// out or, with add, adding each finished sum to it. a's element (i, p) is
// a[i·ars + p·aks]. It returns how many leading columns it finished, like
// matMulAsm32.
func matMulAsm64(out, a, b []float64, m, k, n, ars, aks int, add bool) int {
	n8 := n &^ 7
	if !useAsm || n8 == 0 {
		return 0
	}
	var mode uintptr
	if add {
		mode = 1
	}
	gemmf64(&out[0], &a[0], &b[0], uintptr(m), uintptr(k), uintptr(n8), uintptr(n), uintptr(ars), uintptr(aks), mode)
	return n8
}

// sigmoidAddAsm32 runs the vector logistic kernel over the leading whole
// groups of 8 and returns how many elements it wrote (0 without AVX2+FMA).
func sigmoidAddAsm32(dst, a, b []float32) int {
	n := len(dst) &^ 7
	if !useAsm || n == 0 {
		return 0
	}
	sigmoidAdd8f32(&dst[0], &a[0], &b[0], uintptr(n))
	return n
}

// expFMA is true when math.Exp runs the FMA sequence of math/exp_amd64.s
// that sigmoidAdd4f64 replays. CPUID cannot tell: GODEBUG=cpu.fma=off (or
// cpu.avx=off) moves math.Exp to its other sequence, which rounds differently
// on a few percent of inputs. So the kernel is checked once, here, against
// math.Exp on logistics the two sequences round apart, and runs only if it
// matches every one.
var expFMA = useAsm && sigmoid64MatchesExp()

func sigmoid64MatchesExp() bool {
	x := [8]float64{1.0321, 0.3101, 0.2941, 1.1105, -3.016871075226377, -5.123165541761458, -10.221150996729099, -19.012291302937733}
	var got [8]float64
	sigmoidAdd4f64(&got[0], &x[0], &zero64[0], 0, uintptr(len(x)))
	for i, v := range x {
		if math.Float64bits(got[i]) != math.Float64bits(1/(1+math.Exp(-v))) {
			return false
		}
	}
	return true
}

// sigmoidAddAsm64 runs the float64 logistic kernel over the leading whole
// groups of 4 of dst = σ(a+b), where step 1 walks b with a and step 0 adds
// b's first group of 4 to every group. It stops before the first group
// holding an |a+b| beyond 708 or a NaN, and returns how many elements it
// wrote (0 without AVX2+FMA, or while math.Exp is off its FMA sequence).
func sigmoidAddAsm64(dst, a, b []float64, step int) int {
	n := len(dst) &^ 3
	if !useAsm || !expFMA || n == 0 {
		return 0
	}
	return int(sigmoidAdd4f64(&dst[0], &a[0], &b[0], uintptr(32*step), uintptr(n)))
}

// addReLUAsm32 and addReLUAsm64 run the add-and-ReLU kernel over the
// leading whole registers of dst — groups of 8 float32 or 4 float64 — and
// return how many elements they wrote (0 without AVX2+FMA).
func addReLUAsm32(dst, a, b []float32) int {
	n := len(dst) &^ 7
	if !useAsm || n == 0 {
		return 0
	}
	addReLU8f32(&dst[0], &a[0], &b[0], uintptr(n))
	return n
}

func addReLUAsm64(dst, a, b []float64) int {
	n := len(dst) &^ 3
	if !useAsm || n == 0 {
		return 0
	}
	addReLU4f64(&dst[0], &a[0], &b[0], uintptr(n))
	return n
}

// The gate drivers run their kernels over the leading whole registers of
// columns of every row and return how many columns they finished (0 without
// AVX2+FMA). Callers guarantee width ≥ 1, at least one row, and the lengths
// checkGate checks.
func gateMulAsm32(dst, zr, h []float32, width int) int {
	cols := width &^ 7
	if !useAsm || cols == 0 {
		return 0
	}
	gateMul8f32(&dst[0], &zr[width], &h[0], uintptr(len(dst)/width), uintptr(cols), uintptr(width))
	return cols
}

func gateMulAsm64(dst, zr, h []float64, width int) int {
	cols := width &^ 3
	if !useAsm || cols == 0 {
		return 0
	}
	gateMul4f64(&dst[0], &zr[width], &h[0], uintptr(len(dst)/width), uintptr(cols), uintptr(width))
	return cols
}

func gateBlendAsm32(h, zr, c []float32, width int) int {
	cols := width &^ 7
	if !useAsm || cols == 0 {
		return 0
	}
	gateBlend8f32(&h[0], &zr[0], &c[0], uintptr(len(h)/width), uintptr(cols), uintptr(width))
	return cols
}

func gateBlendAsm64(h, zr, c []float64, width int) int {
	cols := width &^ 3
	if !useAsm || cols == 0 {
		return 0
	}
	gateBlend4f64(&h[0], &zr[0], &c[0], uintptr(len(h)/width), uintptr(cols), uintptr(width))
	return cols
}

// The training drivers (train64_amd64.s) return, like the gate drivers, how
// many leading elements or columns their kernel finished (0 without
// AVX2+FMA). Callers guarantee the lengths train.go checks and at least one
// row.
func reluAsm64(dst, x []float64) int {
	n := len(dst) &^ 3
	if !useAsm || n == 0 {
		return 0
	}
	relu4f64(&dst[0], &x[0], uintptr(n))
	return n
}

func gruBackUpdateAsm64(dhp, dz, dc, dh, zr, hp, c, pre []float64, width int) int {
	cols := width &^ 3
	if !useAsm || cols == 0 {
		return 0
	}
	var mode uintptr
	pdhp, ppre := &dz[0], &c[0] // stand-ins the kernel never reads
	if dhp != nil {
		mode, pdhp = mode|1, &dhp[0]
	}
	if pre != nil {
		mode, ppre = mode|2, &pre[0]
	}
	gruBackUpdate4f64(pdhp, &dz[0], &dc[0], &dh[0], &zr[0], &hp[0], &c[0], ppre,
		uintptr(len(dh)/width), uintptr(cols), uintptr(width), mode)
	return cols
}

func gruBackResetAsm64(dhp, dr, drh, zr, hp []float64, width int) int {
	cols := width &^ 3
	if !useAsm || cols == 0 {
		return 0
	}
	var mode uintptr
	pdhp := &dr[0]
	if dhp != nil {
		mode, pdhp = 1, &dhp[0]
	}
	gruBackReset4f64(pdhp, &dr[0], &drh[0], &zr[width], &hp[0], uintptr(len(drh)/width), uintptr(cols), uintptr(width), mode)
	return cols
}

func colSumAsm64(acc, m []float64) int {
	cols := len(acc) &^ 3
	if !useAsm || cols == 0 {
		return 0
	}
	colSum4f64(&acc[0], &m[0], uintptr(len(m)/len(acc)), uintptr(cols), uintptr(len(acc)))
	return cols
}

func adamAsm64(p, g, m, v []float64, c *AdamCoef) int {
	n := len(p) &^ 3
	if !useAsm || n == 0 {
		return 0
	}
	adam4f64(&p[0], &g[0], &m[0], &v[0], uintptr(n), c)
	return n
}
