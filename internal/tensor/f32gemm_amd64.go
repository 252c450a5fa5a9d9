//go:build amd64

package tensor

import "math"

// Feature detection and the Go-side drivers for the vector kernels: the
// GEMM tiles, AVX2+FMA float32 (f32gemm_amd64.s) and AVX2 float64
// (f64gemm_amd64.s), the logistic in both precisions (sigmoid32_amd64.s,
// sigmoid64_amd64.s) and the float32 GRU elementwise kernels
// (gate32_amd64.s).
// The assembly handles full tiles — 4×16 and 1×16 in float32, 4×8 and 1×8
// in float64; the ragged right edge runs through matMulScalar, which
// produces the same ascending-k accumulation per element.

// useAsm is true when the CPU and OS support AVX2 and FMA; every vector
// kernel of either precision sits behind it. Tests may flip it to force the
// scalar paths; it is otherwise set once at init.
var useAsm = detectAVX2FMA()

//go:noescape
func f32cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func f32xgetbv() (eax, edx uint32)

//go:noescape
func gemm4x16f32(out, a, b *float32, k, an, bn, on uintptr)

//go:noescape
func gemm1x16f32(out, a, b *float32, k, bn uintptr)

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
func gemm4x8f64(out, a, b *float64, k, an, bn, on uintptr)

//go:noescape
func gemm1x8f64(out, a, b *float64, k, bn uintptr)

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

// matMulAsm32 runs the float32 tiles over every whole group of 16 columns
// of an m×k×n product and returns how many leading columns it finished (0
// without AVX2+FMA); matMulScalar takes the columns from there. Callers
// guarantee k ≥ 1, m ≥ 1, n ≥ 1 and no aliasing.
func matMulAsm32(out, a, b []float32, m, k, n int) int {
	n16 := n &^ 15
	if !useAsm || n16 == 0 {
		return 0
	}
	uk, un := uintptr(k), uintptr(n)
	i := 0
	for ; i+4 <= m; i += 4 {
		for j := 0; j < n16; j += 16 {
			gemm4x16f32(&out[i*n+j], &a[i*k], &b[j], uk, uk, un, un)
		}
	}
	for ; i < m; i++ {
		for j := 0; j < n16; j += 16 {
			gemm1x16f32(&out[i*n+j], &a[i*k], &b[j], uk, un)
		}
	}
	return n16
}

// matMulAsm64 is the same driver over the float64 tiles, 8 columns wide.
func matMulAsm64(out, a, b []float64, m, k, n int) int {
	n8 := n &^ 7
	if !useAsm || n8 == 0 {
		return 0
	}
	uk, un := uintptr(k), uintptr(n)
	i := 0
	for ; i+4 <= m; i += 4 {
		for j := 0; j < n8; j += 8 {
			gemm4x8f64(&out[i*n+j], &a[i*k], &b[j], uk, uk, un, un)
		}
	}
	for ; i < m; i++ {
		for j := 0; j < n8; j += 8 {
			gemm1x8f64(&out[i*n+j], &a[i*k], &b[j], uk, un)
		}
	}
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

// addReLUAsm32 is the same driver over the add-and-ReLU kernel.
func addReLUAsm32(dst, a, b []float32) int {
	n := len(dst) &^ 7
	if !useAsm || n == 0 {
		return 0
	}
	addReLU8f32(&dst[0], &a[0], &b[0], uintptr(n))
	return n
}

// gateMulAsm32 and gateBlendAsm32 run their kernels over the leading whole
// groups of 8 columns of every row and return how many columns they
// finished (0 without AVX2+FMA). Callers guarantee width ≥ 1, at least one
// row, and the lengths checkGate checks.
func gateMulAsm32(dst, zr, h []float32, width int) int {
	cols := width &^ 7
	if !useAsm || cols == 0 {
		return 0
	}
	gateMul8f32(&dst[0], &zr[width], &h[0], uintptr(len(dst)/width), uintptr(cols), uintptr(width))
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
