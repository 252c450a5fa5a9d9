// The logistic of the fused predictor and the tape, dst[i] = σ(a[i]+b[i]),
// and its float32 kernel (the float64 one is math.Exp's own sequence; see
// sigmoid64_amd64.s).
//
// A GRU window is ~1 300 gate sigmoids per row, so this is the one
// transcendental the float32 forward pass cannot afford to evaluate through
// float64 math.Exp. σ(x) = 1/(1+e⁻ˣ) is computed entirely in float32:
//
//	x  = clamp(a+b, −87, 87)        results stay normal: σ(−87) ≈ 1.6e-38 ≥ 2⁻¹²⁶
//	n  = round(−x·log₂e)            e⁻ˣ = 2ⁿ·e⁻ˢ
//	s  = x + n·ln2hi + n·ln2lo      two-constant Cody–Waite, |s| ≤ ln2/2
//	q  = d0 + s·(d1 + … + s·d5)     degree-5 minimax of e⁻ˢ, rel. error 7.8e-8
//	σ  = 1 / (1 + q·2ⁿ)             2ⁿ added straight into q's exponent field
//
// The result is within 2 ulp of the float64 logistic over the clamped range.
// On amd64 with AVX2+FMA (the CPUID check of the GEMM tiles) whole groups of
// 8 run in sigmoid32_amd64.s; sigmoidAddScalar32 evaluates the same
// polynomial for tails, other platforms, and as the assembly's reference.
package tensor

import (
	"fmt"
	"math"
)

const (
	sigClamp  = 87 // |x| beyond this saturates; 2ⁿ stays a normal float32
	sigNLog2e = -1.44269504088896341
	sigLn2Hi  = 0.693359375 // 9 significant bits: n·ln2hi is exact
	sigLn2Lo  = -2.12194440e-4
	sigRound  = 12582912 // 1.5·2²³: adding and subtracting it rounds to nearest-even

	// e⁻ˢ on |s| ≤ ln2/2 + 0.002, Remez on the relative error.
	sigD0 = 1.000000074
	sigD1 = -0.9999996812
	sigD2 = 0.4999886938
	sigD3 = -0.1666759582
	sigD4 = 0.04191824307
	sigD5 = -0.008297242933
)

// SigmoidAdd computes dst[i] = σ(a[i]+b[i]). All three slices must have the
// same length. dst may be a itself (in place); any other overlap between dst
// and an operand panics, like the GEMMs. In float32 it is the kernel above:
// NaN in gives NaN out; ±Inf and anything beyond ±87 saturate to 1 and
// ≈1.6e-38 — never a subnormal. In float64 it is the Go expression
// 1/(1+math.Exp(−(a+b))) to the bit, for every input: on amd64 with AVX2+FMA,
// while math.Exp runs its FMA sequence, sigmoid64_amd64.s replays that
// sequence four lanes at a time, and the expression itself finishes the tail
// and every group holding an |a+b| beyond 708 or a NaN. The tape's Sigmoid is
// the same code, so the float64 predictor and the tape share their gate bits.
func SigmoidAdd[T Float](dst, a, b []T) {
	if !checkAdd("SigmoidAdd", dst, a, b) {
		return
	}
	switch d := any(dst).(type) {
	case []float32:
		a, b := any(a).([]float32), any(b).([]float32)
		for i := sigmoidAddAsm32(d, a, b); i < len(d); i++ {
			d[i] = sigmoidAddScalar32(a[i], b[i])
		}
	case []float64:
		sigmoid64(d, any(a).([]float64), any(b).([]float64), 1)
	}
}

// Sigmoid computes dst[i] = σ(x[i]) in float64: the autodiff tape's logistic,
// SigmoidAdd's kernel with a zero addend (x+0 is x but for −0, and
// exp(±0) = 1). The slices must have one length; dst may be x itself, any
// other overlap panics.
func Sigmoid(dst, x []float64) {
	if len(x) != len(dst) {
		panic(fmt.Sprintf("tensor: Sigmoid length %d into %d", len(x), len(dst)))
	}
	if len(dst) != 0 && &dst[0] != &x[0] && overlap(dst, x) {
		panic("tensor: Sigmoid dst overlaps its operand")
	}
	sigmoid64(dst, x, zero64[:], 0)
}

// zero64 is Sigmoid's addend: one group of 4 zeros, which the kernel adds
// to every group.
var zero64 [4]float64

// sigmoid64 writes dst[i] = σ(a[i]+b[i]) with step 1, or σ(a[i]+0) with
// step 0 and b = zero64: the kernel takes every whole group of 4 it can, and
// the Go expression finishes each group it declines and the tail.
func sigmoid64(dst, a, b []float64, step int) {
	for i := 0; i < len(dst); {
		i += sigmoidAddAsm64(dst[i:], a[i:], b[i*step:], step)
		for end := min(i+4, len(dst)); i < end; i++ {
			dst[i] = 1 / (1 + math.Exp(-(a[i] + b[i*step])))
		}
	}
}

// sigmoidAddScalar32 is the portable twin of the vector kernel: the same
// clamp, reduction, coefficients and exponent-field scaling, one lane at a
// time.
func sigmoidAddScalar32(a, b float32) float32 {
	x := min(max(a+b, -sigClamp), sigClamp)
	if x != x {
		return x
	}
	n := float32(x*sigNLog2e+sigRound) - sigRound
	s := fma32(n, sigLn2Lo, fma32(n, sigLn2Hi, x))
	q := fma32(sigD5, s, sigD4)
	q = fma32(q, s, sigD3)
	q = fma32(q, s, sigD2)
	q = fma32(q, s, sigD1)
	q = fma32(q, s, sigD0)
	e := math.Float32frombits(math.Float32bits(q) + uint32(int32(n))<<23)
	return 1 / (1 + e)
}

// fma32 is x·y+z rounded once, as VFMADD does: the product of two float32
// is exact in float64, so only the final narrowing rounds (a second time in
// the rare double-rounding case, which the 2-ulp kernel test allows for).
func fma32(x, y, z float32) float32 { return float32(float64(x)*float64(y) + float64(z)) }
