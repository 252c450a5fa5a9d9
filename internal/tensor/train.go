// The elementwise half of a float64 training step: the tape's ReLU, the two
// per-step sweeps of the GRU recurrence's backward, the column sum that
// gathers its bias gradients, and Adam's update.
//
// Each is one Go loop — the expression the tape and the optimizer spelled
// inline before — and, on amd64 with AVX2, an assembly kernel
// (train64_amd64.s) that runs the same operations in the same order four
// lanes at a time: VMULPD, VADDPD, VSUBPD, VDIVPD and VSQRTPD, each rounding
// once as the Go operation does, never a fused multiply-add, and VCMPPD with
// VANDPD / VANDNPD where the Go code branches on a comparison. The two agree
// to the bit for every input, NaN, ±Inf, ±0 and subnormals included, so a
// training trajectory keeps its bits; the Go loops finish what the kernels
// leave, run alone on every other platform, and are the reference the
// assembly is tested against.
package tensor

import (
	"fmt"
	"math"
)

// ReLU computes dst[i] = x[i] with every x[i] < 0 replaced by +0 — the tape's
// activation, which keeps a −0 and a NaN as they are (unlike AddReLU's max).
// The slices must have one length; dst may be x itself, any other overlap
// panics.
func ReLU(dst, x []float64) {
	if len(x) != len(dst) {
		panic(fmt.Sprintf("tensor: ReLU length %d into %d", len(x), len(dst)))
	}
	if len(dst) != 0 && &dst[0] != &x[0] && overlap(dst, x) {
		panic("tensor: ReLU dst overlaps its operand")
	}
	x = x[:len(dst)]
	for i := reluAsm64(dst, x); i < len(dst); i++ {
		v := x[i]
		if v < 0 {
			v = 0
		}
		dst[i] = v
	}
}

// GRUBackUpdate is the first sweep of a GRU step's backward, through the
// blend h = (1−z)⊙h′ + z⊙h_{t−1} and the candidate's activation, over the n
// rows of the n×width matrices: with z the left half of the n×2·width gate
// matrix zr = [z|r], ∂h = dh, h_{t−1} = hp and h′ = c,
//
//	dhp += ∂h⊙z                      (skipped when dhp is nil: step 0)
//	dz   = (∂h⊙h_{t−1} − ∂h⊙h′)⊙z⊙(1−z)
//	dc   = ∂h⊙(1−z), +0 where !(pre > 0)
//
// the mask being ReLU's derivative at its input pre, and absent (a Linear
// candidate, or one whose derivative the caller applies to dc) when pre is
// nil. dz and dc are written in full; they, and dhp, overlap nothing.
func GRUBackUpdate(dhp, dz, dc, dh, zr, hp, c, pre []float64, width int) {
	n := len(dh)
	if width <= 0 || n%width != 0 || len(zr) != 2*n || len(hp) != n || len(c) != n || len(dz) != n || len(dc) != n ||
		(dhp != nil && len(dhp) != n) || (pre != nil && len(pre) != n) {
		panic(fmt.Sprintf("tensor: GRUBackUpdate lengths at width %d: dh %d, zr %d, hp %d, c %d, pre %d, dz %d, dc %d, dhp %d",
			width, n, len(zr), len(hp), len(c), len(pre), len(dz), len(dc), len(dhp)))
	}
	if n == 0 {
		return
	}
	checkWritten("GRUBackUpdate", [][]float64{dhp, dz, dc}, [][]float64{dh, zr, hp, c, pre})
	j0 := gruBackUpdateAsm64(dhp, dz, dc, dh, zr, hp, c, pre, width)
	if j0 == width {
		return
	}
	for i := 0; i < n; i += width {
		z := zr[2*i:][:width]
		dhr, hpr, cr, dzr, dcr := dh[i:][:width], hp[i:][:width], c[i:][:width], dz[i:][:width], dc[i:][:width]
		for j := j0; j < width; j++ {
			g := dhr[j]
			if dhp != nil {
				dhp[i+j] += g * z[j]
			}
			dcx := g * (1 - z[j])
			if pre != nil && !(pre[i+j] > 0) {
				dcx = 0
			}
			dcr[j] = dcx
			dzr[j] = (g*hpr[j] - g*cr[j]) * z[j] * (1 - z[j])
		}
	}
}

// GRUBackReset is the second sweep, through r⊙h_{t−1}, over the same rows:
// with r the right half of zr and drh = ∂(r⊙h_{t−1}),
//
//	dr   = drh⊙h_{t−1}⊙r⊙(1−r)
//	dhp += drh⊙r                     (skipped when dhp is nil)
//
// dr is written in full; it and dhp overlap nothing.
func GRUBackReset(dhp, dr, drh, zr, hp []float64, width int) {
	n := len(drh)
	if width <= 0 || n%width != 0 || len(zr) != 2*n || len(hp) != n || len(dr) != n || (dhp != nil && len(dhp) != n) {
		panic(fmt.Sprintf("tensor: GRUBackReset lengths at width %d: drh %d, zr %d, hp %d, dr %d, dhp %d",
			width, n, len(zr), len(hp), len(dr), len(dhp)))
	}
	if n == 0 {
		return
	}
	checkWritten("GRUBackReset", [][]float64{dhp, dr}, [][]float64{drh, zr, hp})
	j0 := gruBackResetAsm64(dhp, dr, drh, zr, hp, width)
	if j0 == width {
		return
	}
	for i := 0; i < n; i += width {
		r := zr[2*i+width:][:width]
		drhr, hpr, drr := drh[i:][:width], hp[i:][:width], dr[i:][:width]
		for j := j0; j < width; j++ {
			drr[j] = drhr[j] * hpr[j] * r[j] * (1 - r[j])
			if dhp != nil {
				dhp[i+j] += drhr[j] * r[j]
			}
		}
	}
}

// checkWritten panics if a slice a kernel writes overlaps another it writes
// or one it reads; nil slices are absent operands.
func checkWritten(op string, written, read [][]float64) {
	for i, w := range written {
		for _, o := range written[i+1:] {
			if overlap(w, o) {
				panic(fmt.Sprintf("tensor: %s output overlaps an operand", op))
			}
		}
		for _, o := range read {
			if overlap(w, o) {
				panic(fmt.Sprintf("tensor: %s output overlaps an operand", op))
			}
		}
	}
}

// ColSumAdd adds the rows of the row-major matrix m, len(acc) wide, into acc
// in row order: acc[j] += m[i][j] for i ascending — a bias gradient gathered
// row by row, as the tape gathers it. acc must not overlap m.
func ColSumAdd(acc, m []float64) {
	w := len(acc)
	if (w == 0 && len(m) != 0) || (w != 0 && len(m)%w != 0) {
		panic(fmt.Sprintf("tensor: ColSumAdd %d values into %d columns", len(m), w))
	}
	if len(m) == 0 {
		return
	}
	if overlap(acc, m) {
		panic("tensor: ColSumAdd acc overlaps its operand")
	}
	j0 := colSumAsm64(acc, m)
	for i := 0; i < len(m); i += w {
		row := m[i:][:w]
		for j := j0; j < w; j++ {
			acc[j] += row[j]
		}
	}
}

// AdamCoef is one Adam step's constants: the gradient's clip scale, the two
// decay rates and their complements (computed by the caller, so the kernel
// multiplies by exactly the numbers the Go expression would), the two bias
// corrections, the learning rate and ε.
type AdamCoef struct {
	Scale, Beta1, OneMinusBeta1, Beta2, OneMinusBeta2, BC1, BC2, LR, Eps float64
}

// AdamStep applies one Adam update to the parameter p from its gradient g,
// with first and second moments m and v, element by element:
//
//	gi = g·scale
//	m  = β1·m + (1−β1)·gi
//	v  = β2·v + (1−β2)·gi·gi
//	p -= lr·(m/bc1) / (√(v/bc2) + ε)
//
// The four slices must have one length and overlap nothing.
func AdamStep(p, g, m, v []float64, c *AdamCoef) {
	n := len(p)
	if len(g) != n || len(m) != n || len(v) != n {
		panic(fmt.Sprintf("tensor: AdamStep lengths p %d, g %d, m %d, v %d", n, len(g), len(m), len(v)))
	}
	if n == 0 {
		return
	}
	checkWritten("AdamStep", [][]float64{p, m, v}, [][]float64{g})
	g, m, v = g[:n], m[:n], v[:n]
	for i := adamAsm64(p, g, m, v, c); i < n; i++ {
		gi := g[i] * c.Scale
		m[i] = c.Beta1*m[i] + c.OneMinusBeta1*gi
		v[i] = c.Beta2*v[i] + c.OneMinusBeta2*gi*gi
		mhat := m[i] / c.BC1
		vhat := v[i] / c.BC2
		p[i] -= c.LR * mhat / (math.Sqrt(vhat) + c.Eps)
	}
}
