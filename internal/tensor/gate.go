// The elementwise half of a fused GRU step, batch-wide: the ReLU that closes
// a product (AddReLU, flat), r ⊙ h (GateMul) and the state blend (GateBlend),
// the last two reading their gate out of the n×2·width matrix [z|r] that one
// SigmoidAdd call left behind.
//
// Each is one Go loop — the expression the predictor's own loops used to
// spell per row — and, on amd64 with AVX2, an assembly kernel per precision
// that runs the same operations in the same order a register at a time:
// eight float32 lanes (gate32_amd64.s: VADDPS, VSUBPS, VMULPS, VMAXPS) or
// four float64 lanes (gate64_amd64.s: VADDPD, VSUBPD, VMULPD, VMAXPD), each
// rounding once exactly as the Go expression does, never a fused
// multiply-add. The two agree to the bit for every input, NaN, ±Inf, ±0 and
// subnormals included, so float64 keeps the tape's and the predictor's bits;
// the Go loops finish what the kernels leave — the flat tail, the columns
// past the last whole register — run alone on every other platform, and are
// the reference the assembly is tested against.
package tensor

import "fmt"

// AddReLU computes dst[i] = max(a[i]+b[i], 0), Go's builtin max: a NaN sum
// stays NaN (a clamp that swallowed it would hide a diverged model behind a
// plausible 0) and a −0 sum comes out +0. The slices must have one length;
// dst may be a itself, any other overlap between dst and an operand panics.
func AddReLU[T Float](dst, a, b []T) {
	if !checkAdd("AddReLU", dst, a, b) {
		return
	}
	i := 0
	switch d := any(dst).(type) {
	case []float32:
		i = addReLUAsm32(d, any(a).([]float32), any(b).([]float32))
	case []float64:
		i = addReLUAsm64(d, any(a).([]float64), any(b).([]float64))
	}
	a, b = a[:len(dst)], b[:len(dst)]
	for ; i < len(dst); i++ {
		dst[i] = max(a[i]+b[i], 0)
	}
}

// checkAdd is the contract of the flat two-operand kernels (SigmoidAdd,
// AddReLU): equal lengths, dst is a or overlaps nothing. It reports whether
// there is anything to compute.
func checkAdd[T Float](op string, dst, a, b []T) bool {
	if len(a) != len(dst) || len(b) != len(dst) {
		panic(fmt.Sprintf("tensor: %s lengths %d, %d into %d", op, len(a), len(b), len(dst)))
	}
	if len(dst) == 0 {
		return false
	}
	if (&dst[0] != &a[0] && overlap(dst, a)) || overlap(dst, b) {
		panic(fmt.Sprintf("tensor: %s dst overlaps an operand", op))
	}
	return true
}

// GateMul computes dst[i,:] = r[i,:] ⊙ h[i,:] for the n rows of the n×width
// matrices dst and h, where r is the right half of the n×2·width gate matrix
// zr = [z|r]. dst must overlap neither operand.
func GateMul[T Float](dst, zr, h []T, width int) {
	if !checkGate("GateMul", dst, zr, h, width) {
		return
	}
	j0 := 0
	switch d := any(dst).(type) {
	case []float32:
		j0 = gateMulAsm32(d, any(zr).([]float32), any(h).([]float32), width)
	case []float64:
		j0 = gateMulAsm64(d, any(zr).([]float64), any(h).([]float64), width)
	}
	if j0 == width {
		return
	}
	for i := 0; i < len(dst); i += width {
		r, hrow, out := zr[2*i+width:][:width], h[i:][:width], dst[i:][:width]
		for j := j0; j < width; j++ {
			out[j] = r[j] * hrow[j]
		}
	}
}

// GateBlend computes h[i,:] = (1−z[i,:]) ⊙ c[i,:] + z[i,:] ⊙ h[i,:] in place
// for the n rows of the n×width matrices h and c, where z is the left half
// of the n×2·width gate matrix zr = [z|r]. h must overlap neither operand.
func GateBlend[T Float](h, zr, c []T, width int) {
	if !checkGate("GateBlend", h, zr, c, width) {
		return
	}
	j0 := 0
	switch d := any(h).(type) {
	case []float32:
		j0 = gateBlendAsm32(d, any(zr).([]float32), any(c).([]float32), width)
	case []float64:
		j0 = gateBlendAsm64(d, any(zr).([]float64), any(c).([]float64), width)
	}
	if j0 == width {
		return
	}
	for i := 0; i < len(h); i += width {
		z, hrow, crow := zr[2*i:][:width], h[i:][:width], c[i:][:width]
		for j := j0; j < width; j++ {
			hrow[j] = (1-z[j])*crow[j] + z[j]*hrow[j]
		}
	}
}

// checkGate is the contract of the two gate kernels: out and x are n×width,
// zr is n×2·width, and out — which the kernel writes — overlaps neither. It
// reports whether there is anything to compute. The assembly indexes all
// three by row from these lengths alone, so nothing here is optional.
func checkGate[T Float](op string, out, zr, x []T, width int) bool {
	if width < 0 || len(x) != len(out) || len(zr) != 2*len(out) || (len(out) != 0 && (width == 0 || len(out)%width != 0)) {
		panic(fmt.Sprintf("tensor: %s lengths %d, %d with gates %d at width %d", op, len(out), len(x), len(zr), width))
	}
	if len(out) == 0 {
		return false
	}
	if overlap(out, zr) || overlap(out, x) {
		panic(fmt.Sprintf("tensor: %s output overlaps an operand", op))
	}
	return true
}
