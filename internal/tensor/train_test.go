package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The references are the training step's loops as the tape, the GRU node and
// the optimizer spelled them before these were kernels, with explicit (row,
// column) indexing so they share no arithmetic on offsets with train.go.

func refReLU(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		if v < 0 {
			v = 0
		}
		out[i] = v
	}
	return out
}

// refGRUBackUpdate returns dz, dc and the updated dhp (nil in, nil out).
func refGRUBackUpdate(dhp, dh, zr, hp, c, pre []float64, n, width int) (dz, dc, dhpOut []float64) {
	dz, dc = make([]float64, n*width), make([]float64, n*width)
	if dhp != nil {
		dhpOut = append([]float64(nil), dhp...)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < width; j++ {
			e, z, gv := i*width+j, zr[i*2*width+j], dh[i*width+j]
			if dhp != nil {
				dhpOut[e] += gv * z
			}
			dzx := gv*hp[e] - gv*c[e]
			dcx := gv * (1 - z)
			if pre != nil && !(pre[e] > 0) {
				dcx = 0
			}
			dc[e], dz[e] = dcx, dzx*z*(1-z)
		}
	}
	return dz, dc, dhpOut
}

func refGRUBackReset(dhp, drh, zr, hp []float64, n, width int) (dr, dhpOut []float64) {
	dr = make([]float64, n*width)
	if dhp != nil {
		dhpOut = append([]float64(nil), dhp...)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < width; j++ {
			e, rv := i*width+j, zr[i*2*width+width+j]
			dr[e] = drh[e] * hp[e] * rv * (1 - rv)
			if dhp != nil {
				dhpOut[e] += drh[e] * rv
			}
		}
	}
	return dr, dhpOut
}

func refColSum(acc, m []float64, n, width int) []float64 {
	out := append([]float64(nil), acc...)
	for i := 0; i < n; i++ {
		for j := 0; j < width; j++ {
			out[j] += m[i*width+j]
		}
	}
	return out
}

func refAdam(p, g, m, v []float64, c *AdamCoef) (pOut, mOut, vOut []float64) {
	pOut, mOut, vOut = append([]float64(nil), p...), append([]float64(nil), m...), append([]float64(nil), v...)
	for i := range pOut {
		gi := g[i] * c.Scale
		mOut[i] = c.Beta1*mOut[i] + (c.OneMinusBeta1)*gi
		vOut[i] = c.Beta2*vOut[i] + (c.OneMinusBeta2)*gi*gi
		mhat := mOut[i] / c.BC1
		vhat := vOut[i] / c.BC2
		pOut[i] -= c.LR * mhat / (math.Sqrt(vhat) + c.Eps)
	}
	return pOut, mOut, vOut
}

// trainWidths are the row widths the training kernels face: all Go tail,
// a register and a tail, exactly one register, two, and the GRU's 32 plus one.
var trainWidths = []int{1, 3, 4, 5, 8, 33}

// operands returns count slices of size values: random, one in four a
// special, with the two positions of pair (if any) walking every pair of
// specials instead.
func operands(rng *rand.Rand, count, size int, pair [2]int, grid [][]float64) [][]float64 {
	out := make([][]float64, count)
	for i := range out {
		out[i] = gateRandom[float64](rng, size)
	}
	if grid != nil {
		copy(out[pair[0]], grid[0])
		copy(out[pair[1]], grid[1])
	}
	return out
}

// trainCases calls f with the operand sets of the battery: for every pair of
// operand positions, every pair of specials there at a width the assembly
// takes whole (8), the rest salted at random; then random salted operands at
// every width of trainWidths and 1 and 5 rows.
func trainCases(t *testing.T, count int, f func(t *testing.T, what string, ops [][]float64, n, width int)) {
	rng := rand.New(rand.NewSource(35))
	g := specialGrid[float64](2, 8)
	for a := 0; a < count; a++ {
		for b := a + 1; b < count; b++ {
			ops := operands(rng, count, len(g[0]), [2]int{a, b}, g)
			f(t, fmt.Sprintf("specials in %d,%d", a, b), ops, len(g[0])/8, 8)
		}
	}
	for _, width := range trainWidths {
		for _, n := range []int{1, 5} {
			ops := operands(rng, count, n*width, [2]int{}, nil)
			f(t, fmt.Sprintf("%dx%d", n, width), ops, n, width)
		}
	}
}

// gates lays the left (z) and right (r) halves of an n×2·width gate matrix
// from two n×width operands.
func gates(z, r []float64, n, width int) []float64 {
	zr := make([]float64, 2*n*width)
	for i := 0; i < n; i++ {
		copy(zr[i*2*width:][:width], z[i*width:][:width])
		copy(zr[i*2*width+width:][:width], r[i*width:][:width])
	}
	return zr
}

// TestTrainKernelsMatchReference holds every training kernel to the Go
// expression it replaced, bit for bit (NaN matching any NaN), on the assembly
// and again with it switched off: ReLU, both GRU sweeps with and without the
// ∂h_{t−1} accumulation and the first for a ReLU (masked) and a Linear
// candidate, the bias column sum, and Adam at a clip scale of 1 and not —
// with every pair of specials (NaN, ±Inf, ±0, 5e-324, ±MaxFloat64) in every
// pair of operand positions, then salted random data at widths 1, 3, 4, 5, 8
// and 33. Outputs sit between canaries.
func TestTrainKernelsMatchReference(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		// x (a second operand only gives the specials a pair to walk)
		trainCases(t, 2, func(t *testing.T, what string, ops [][]float64, n, width int) {
			x := ops[0]
			dst, check := guarded(make([]float64, len(x)))
			ReLU(dst, x)
			sameBits(t, "ReLU "+what, dst, refReLU(x))
			check(t, "ReLU "+what)
			in := append([]float64(nil), x...)
			ReLU(in, in)
			sameBits(t, "ReLU in place "+what, in, refReLU(x))
		})
		// dh, z, hp, c, pre, dhp, r (r only fills the gate matrix's other half)
		trainCases(t, 7, func(t *testing.T, what string, ops [][]float64, n, width int) {
			dh, zr, hp, c, pre, dhp0 := ops[0], gates(ops[1], ops[6], n, width), ops[2], ops[3], ops[4], ops[5]
			for _, withDhp := range []bool{false, true} {
				for _, mask := range []bool{false, true} {
					w := fmt.Sprintf("GRUBackUpdate %s dhp=%v relu=%v", what, withDhp, mask)
					var dhp, refDhp, p []float64
					var checkDhp func(testing.TB, string)
					if withDhp {
						dhp, checkDhp = guarded(dhp0)
						refDhp = dhp0
					}
					if mask {
						p = pre
					}
					wantDz, wantDc, wantDhp := refGRUBackUpdate(refDhp, dh, zr, hp, c, p, n, width)
					dz, checkDz := guarded(make([]float64, len(dh)))
					dc, checkDc := guarded(make([]float64, len(dh)))
					GRUBackUpdate(dhp, dz, dc, dh, zr, hp, c, p, width)
					sameBits(t, w+" dz", dz, wantDz)
					sameBits(t, w+" dc", dc, wantDc)
					checkDz(t, w+" dz")
					checkDc(t, w+" dc")
					if withDhp {
						sameBits(t, w+" dhp", dhp, wantDhp)
						checkDhp(t, w+" dhp")
					}
				}
			}
		})
		// drh, r, hp, dhp, z
		trainCases(t, 5, func(t *testing.T, what string, ops [][]float64, n, width int) {
			drh, zr, hp, dhp0 := ops[0], gates(ops[4], ops[1], n, width), ops[2], ops[3]
			for _, withDhp := range []bool{false, true} {
				w := fmt.Sprintf("GRUBackReset %s dhp=%v", what, withDhp)
				var dhp, refDhp []float64
				var checkDhp func(testing.TB, string)
				if withDhp {
					dhp, checkDhp = guarded(dhp0)
					refDhp = dhp0
				}
				wantDr, wantDhp := refGRUBackReset(refDhp, drh, zr, hp, n, width)
				dr, checkDr := guarded(make([]float64, len(drh)))
				GRUBackReset(dhp, dr, drh, zr, hp, width)
				sameBits(t, w+" dr", dr, wantDr)
				checkDr(t, w+" dr")
				if withDhp {
					sameBits(t, w+" dhp", dhp, wantDhp)
					checkDhp(t, w+" dhp")
				}
			}
		})
		// m, and acc from the first row of a second operand
		trainCases(t, 2, func(t *testing.T, what string, ops [][]float64, n, width int) {
			m, acc0 := ops[0], ops[1][:width]
			acc, check := guarded(acc0)
			ColSumAdd(acc, m)
			sameBits(t, "ColSumAdd "+what, acc, refColSum(acc0, m, n, width))
			check(t, "ColSumAdd "+what)
		})
		// p, g, m, v (v ≥ 0 as Adam keeps it, but for a NaN)
		for _, scale := range []float64{1, 0.37} {
			c := adamCoef(scale, 3)
			trainCases(t, 4, func(t *testing.T, what string, ops [][]float64, n, width int) {
				p0, g, m0, v0 := ops[0], ops[1], ops[2], ops[3]
				for i, x := range v0 {
					v0[i] = math.Abs(x)
				}
				w := fmt.Sprintf("AdamStep %s scale=%v", what, scale)
				wantP, wantM, wantV := refAdam(p0, g, m0, v0, c)
				p, checkP := guarded(p0)
				m, checkM := guarded(m0)
				v, checkV := guarded(v0)
				AdamStep(p, g, m, v, c)
				sameBits(t, w+" p", p, wantP)
				sameBits(t, w+" m", m, wantM)
				sameBits(t, w+" v", v, wantV)
				checkP(t, w+" p")
				checkM(t, w+" m")
				checkV(t, w+" v")
			})
		}
	})
}

// adamCoef is nn.Adam's defaults at step t with learning rate 0.01.
func adamCoef(scale float64, t int) *AdamCoef {
	b1, b2 := 0.9, 0.999
	return &AdamCoef{
		Scale: scale, Beta1: b1, OneMinusBeta1: 1 - b1, Beta2: b2, OneMinusBeta2: 1 - b2,
		BC1: 1 - math.Pow(b1, float64(t)), BC2: 1 - math.Pow(b2, float64(t)), LR: 0.01, Eps: 1e-8,
	}
}

// TestReLUKeepsMinusZeroAndNaN pins the tape's ReLU where it parts from
// AddReLU's max: −0 stays −0, a NaN stays a NaN, and only what compares below
// zero (−Inf, the smallest negative subnormal) becomes +0.
func TestReLUKeepsMinusZeroAndNaN(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		negZero := math.Copysign(0, -1)
		x := []float64{negZero, math.NaN(), math.Inf(-1), -5e-324, 0, 5e-324, math.Inf(1), -2}
		ReLU(x, x)
		want := []float64{negZero, math.NaN(), 0, 0, 0, 5e-324, math.Inf(1), 0}
		sameBits(t, "ReLU", x, want)
		if math.Signbit(x[2]) || math.Signbit(x[3]) || math.Signbit(x[7]) {
			t.Fatalf("ReLU's zeros must be +0: %v", x)
		}
	})
}

// TestMatMulTAddMatchesTransposed holds out + aᵀ·b to the transpose packed
// first and then MatMulAddInto, by math.Float64bits, on the assembly and with
// it off: over 4-row strips, row tails, 8-column tiles and Go column tails, k
// from 0 up, with edge values (±0, subnormals, ±1e300) in every operand and
// in out, which must not be written outside its own elements.
func TestMatMulTAddMatchesTransposed(t *testing.T) {
	defer func(old bool) { useAsm = old }(useAsm)
	hasAsm := useAsm
	rng := rand.New(rand.NewSource(47))
	for _, m := range []int{1, 2, 3, 4, 5, 7, 8, 9, 32, 33} {
		for _, n := range []int{1, 3, 4, 7, 8, 9, 16, 17, 32, 40} {
			for _, k := range []int{0, 1, 2, 5, 32, 33} {
				a, b, acc := edgeMat(rng, k, m), edgeMat(rng, k, n), edgeMat(rng, m, n)
				want := fromSlice(m, n, append([]float64(nil), acc.Data...))
				at := New(m, k)
				a.TransposeInto(at)
				MatMulAddInto(want, at, b)
				for _, asm := range []bool{false, true} {
					if asm && !hasAsm {
						continue
					}
					useAsm = asm
					what := fmt.Sprintf("%dx%dx%d asm=%v", m, k, n, asm)
					got, check := guarded(acc.Data)
					MatMulTAddInto(fromSlice(m, n, got), a, b)
					sameF64Bits(t, what, got, want.Data)
					check(t, what)
				}
			}
		}
	}
}

// TestTrainKernelPanics: every misshapen call and every output that overlaps
// an operand panics before any kernel runs.
func TestTrainKernelPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	buf := make([]float64, 64)
	a8, b8, c8, d8, e8 := buf[0:8], buf[8:16], buf[16:24], buf[24:32], buf[32:40]
	zr := buf[40:56]
	expectPanic("ReLU lengths", func() { ReLU(a8, b8[:4]) })
	expectPanic("ReLU overlap", func() { ReLU(buf[0:8], buf[4:12]) })
	expectPanic("GRUBackUpdate zr length", func() { GRUBackUpdate(nil, a8, b8, c8, zr[:8], d8, e8, nil, 8) })
	expectPanic("GRUBackUpdate width", func() { GRUBackUpdate(nil, a8, b8, c8, zr, d8, e8, nil, 3) })
	expectPanic("GRUBackUpdate dz on dc", func() { GRUBackUpdate(nil, a8, a8, c8, zr, d8, e8, nil, 8) })
	expectPanic("GRUBackUpdate dhp on dh", func() { GRUBackUpdate(c8, a8, b8, c8, zr, d8, e8, nil, 8) })
	expectPanic("GRUBackUpdate dc in the gates", func() { GRUBackUpdate(nil, a8, zr[4:12], c8, zr, d8, e8, nil, 8) })
	expectPanic("GRUBackReset dr on hp", func() { GRUBackReset(nil, d8, c8, zr, d8, 8) })
	expectPanic("GRUBackReset dhp length", func() { GRUBackReset(a8[:4], b8, c8, zr, d8, 8) })
	expectPanic("ColSumAdd ragged", func() { ColSumAdd(a8[:3], b8) })
	expectPanic("ColSumAdd overlap", func() { ColSumAdd(buf[0:4], buf[0:8]) })
	expectPanic("AdamStep lengths", func() { AdamStep(a8, b8, c8, d8[:4], adamCoef(1, 1)) })
	expectPanic("AdamStep m on v", func() { AdamStep(a8, b8, c8, c8, adamCoef(1, 1)) })
	expectPanic("MatMulTAddInto shape", func() { MatMulTAddInto(New(2, 3), New(4, 3), New(4, 3)) })
	expectPanic("MatMulTAddInto alias", func() {
		x := New(4, 4)
		MatMulTAddInto(x, x, New(4, 4))
	})
	GRUBackUpdate(nil, nil, nil, nil, nil, nil, nil, nil, 4) // no rows: nothing to do
	GRUBackReset(nil, nil, nil, nil, nil, 4)
	ColSumAdd(nil, nil)
	AdamStep(nil, nil, nil, nil, adamCoef(1, 1))
}

// FuzzTrainKernels feeds arbitrary float64 bit patterns through every
// training kernel — ReLU, both GRU sweeps in every mode, the column sum,
// Adam, and MatMulTAddInto — at an n×width the input picks, on the assembly
// and again with it off; the two must agree to the bit, NaN matching any NaN.
// MatMulTAddInto is held to TransposeInto plus MatMulAddInto on each path.
func FuzzTrainKernels(f *testing.F) {
	seed := make([]byte, 8*64)
	for i := range seed {
		seed[i] = byte(i*53 + 7)
	}
	f.Add(uint8(5), uint8(33), uint8(3), seed)
	f.Add(uint8(1), uint8(8), uint8(0), seed[:48])
	f.Add(uint8(4), uint8(4), uint8(9), []byte{0x80, 0, 0, 0, 0, 0, 0, 0, 0x7f, 0xf0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, n8, w8, k8 uint8, data []byte) {
		n, width, k := int(n8%9)+1, int(w8%40)+1, int(k8%12)
		next := 0
		vals := func(count int) []float64 {
			out := make([]float64, count)
			for i := range out {
				var u uint64
				for b := 0; b < 8 && len(data) > 0; b++ {
					u = u<<8 | uint64(data[next%len(data)])
					next++
				}
				out[i] = math.Float64frombits(u)
			}
			return out
		}
		sz := n * width
		x, dh, hp, c, pre, dhp0, zr := vals(sz), vals(sz), vals(sz), vals(sz), vals(sz), vals(sz), vals(2*sz)
		cf := vals(9)
		coef := &AdamCoef{cf[0], cf[1], cf[2], cf[3], cf[4], cf[5], cf[6], cf[7], cf[8]}
		a, b := fromSlice(k, n, vals(k*n)), fromSlice(k, width, vals(k*width))

		defer func(old bool) { useAsm = old }(useAsm)
		hasAsm := useAsm
		run := func(asm bool) [][]float64 {
			useAsm = asm
			var r [][]float64
			relu := make([]float64, sz)
			ReLU(relu, x)
			r = append(r, relu)
			for mode := 0; mode < 4; mode++ {
				var dhp, p []float64
				if mode&1 != 0 {
					dhp = append([]float64(nil), dhp0...)
				}
				if mode&2 != 0 {
					p = pre
				}
				dz, dc := make([]float64, sz), make([]float64, sz)
				GRUBackUpdate(dhp, dz, dc, dh, zr, hp, c, p, width)
				dr := make([]float64, sz)
				GRUBackReset(dhp, dr, x, zr, hp, width)
				r = append(r, dz, dc, dr, dhp)
			}
			acc := append([]float64(nil), dhp0[:width]...)
			ColSumAdd(acc, x)
			pm, mm, vm := append([]float64(nil), x...), append([]float64(nil), dh...), append([]float64(nil), hp...)
			AdamStep(pm, c, mm, vm, coef)
			out := append([]float64(nil), pre[:n*width]...)
			MatMulTAddInto(fromSlice(n, width, out), a, b)
			want := fromSlice(n, width, append([]float64(nil), pre[:n*width]...))
			at := New(n, k)
			a.TransposeInto(at)
			MatMulAddInto(want, at, b)
			sameBits(t, fmt.Sprintf("MatMulTAddInto %dx%dx%d asm=%v", n, k, width, asm), out, want.Data)
			return append(r, acc, pm, mm, vm, out)
		}
		want := run(false)
		sameBits(t, "ReLU scalar", want[0], refReLU(x))
		if !hasAsm {
			return
		}
		got := run(true)
		for i := range want {
			sameBits(t, fmt.Sprintf("output %d at %dx%d", i, n, width), got[i], want[i])
		}
	})
}

// BenchmarkAdamStep is one Adam update over the float64 model's parameters
// as nn.Adam visits them: 2 113 values in the GRU's nine, then a 64-unit
// dense layer's 640 and a 40-wide one's 2 600.
func BenchmarkAdamStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var ps, gs, ms, vs [][]float64
	for _, size := range []int{32, 1024, 32, 32, 1024, 32, 32, 1024, 32, 640, 2600} {
		p, g, m, v := make([]float64, size), make([]float64, size), make([]float64, size), make([]float64, size)
		for i := range p {
			p[i], g[i], m[i], v[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()*0.1, rng.Float64()*0.01
		}
		ps, gs, ms, vs = append(ps, p), append(gs, g), append(ms, m), append(vs, v)
	}
	c := adamCoef(1, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ps {
			AdamStep(ps[j], gs[j], ms[j], vs[j], c)
		}
	}
}
