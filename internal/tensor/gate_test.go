package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The references are the loops the predictor spelled per row before these
// were kernels, written with explicit (row, column) indexing so they share
// no arithmetic on offsets with gate.go.

func refAddReLU(a, b []float32) []float32 {
	out := make([]float32, len(a))
	for i := range out {
		out[i] = max(a[i]+b[i], 0)
	}
	return out
}

func refGateMul(zr, h []float32, n, width int) []float32 {
	out := make([]float32, n*width)
	for i := 0; i < n; i++ {
		for j := 0; j < width; j++ {
			out[i*width+j] = zr[i*2*width+width+j] * h[i*width+j]
		}
	}
	return out
}

func refGateBlend(h, zr, c []float32, n, width int) []float32 {
	out := make([]float32, n*width)
	for i := 0; i < n; i++ {
		for j := 0; j < width; j++ {
			z := zr[i*2*width+j]
			out[i*width+j] = (1-z)*c[i*width+j] + z*h[i*width+j]
		}
	}
	return out
}

// gateSpecials are the values a float32 kernel is most likely to treat
// differently from the Go expression: NaN, infinities, both zeros, the
// smallest subnormals, the largest finite magnitudes, and two ordinary
// values so a special meets a plain number as well as another special.
var gateSpecials = []float32{
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	0, float32(math.Copysign(0, -1)), 1e-45, -1e-45, 3.4e38, -3.4e38, 1, -1.5,
}

// specialGrid returns k slices that together walk every k-tuple of
// gateSpecials, padded with 1s to a multiple of width.
func specialGrid(k, width int) [][]float32 {
	total := 1
	for i := 0; i < k; i++ {
		total *= len(gateSpecials)
	}
	out := make([][]float32, k)
	for p := range out {
		out[p] = make([]float32, (total+width-1)/width*width)
		for i := range out[p] {
			out[p][i] = 1
		}
	}
	for i := 0; i < total; i++ {
		for p, rem := 0, i; p < k; p, rem = p+1, rem/len(gateSpecials) {
			out[p][i] = gateSpecials[rem%len(gateSpecials)]
		}
	}
	return out
}

// gateRandom is n values, one in four a special.
func gateRandom(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		if rng.Intn(4) == 0 {
			out[i] = gateSpecials[rng.Intn(len(gateSpecials))]
		} else {
			out[i] = float32(rng.NormFloat64() * 3)
		}
	}
	return out
}

// sameBits is the 0-ulp comparison: identical bit patterns, or both NaN
// (which NaN an operation returns is the one thing the Go expression does not
// pin either).
func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) && (got[i] == got[i] || want[i] == want[i]) {
			t.Fatalf("%s element %d: %v (%08x), want %v (%08x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// guarded copies v between two canaries; check fails if either moved.
func guarded(v []float32) (inner []float32, check func(t *testing.T, what string)) {
	const canary = -7
	buf := make([]float32, len(v)+16)
	for i := range buf {
		buf[i] = canary
	}
	inner = buf[8 : 8+len(v) : 8+len(v)]
	copy(inner, v)
	return inner, func(t *testing.T, what string) {
		t.Helper()
		for i, x := range buf {
			if (i < 8 || i >= 8+len(v)) && x != canary {
				t.Fatalf("%s: wrote outside its output (guard %d = %v)", what, i-8, x)
			}
		}
	}
}

// TestGateKernelsMatchReference holds all three entry points to the Go
// expressions bit for bit, on the assembly and again with it switched off:
// every pair (triple) of special values in every operand position at a width
// the assembly takes whole, then random data salted with specials over
// widths that are all tail, exactly one group, a group plus a tail, the
// serving width and one with a ragged multi-group row — times row counts 0
// (nothing may run: the assembly's loops are do-while), 1, and more than one
// 4-row group's worth.
func TestGateKernelsMatchReference(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		g := specialGrid(2, 8)
		dst, check := guarded(make([]float32, len(g[0])))
		AddReLU(dst, g[0], g[1])
		sameBits(t, "AddReLU specials", dst, refAddReLU(g[0], g[1]))
		check(t, "AddReLU specials")

		// r against h: the gate matrix carries the first operand in its
		// right half.
		n := len(g[0]) / 8
		zr := make([]float32, 2*len(g[0]))
		for i := 0; i < n; i++ {
			copy(zr[i*16+8:][:8], g[0][i*8:][:8])
		}
		dst, check = guarded(make([]float32, len(g[0])))
		GateMul(dst, zr, g[1], 8)
		sameBits(t, "GateMul specials", dst, refGateMul(zr, g[1], n, 8))
		check(t, "GateMul specials")

		g = specialGrid(3, 8)
		n = len(g[0]) / 8
		zr = make([]float32, 2*len(g[0]))
		for i := 0; i < n; i++ {
			copy(zr[i*16:][:8], g[0][i*8:][:8])
		}
		h, check := guarded(g[1])
		want := refGateBlend(h, zr, g[2], n, 8)
		GateBlend(h, zr, g[2], 8)
		sameBits(t, "GateBlend specials", h, want)
		check(t, "GateBlend specials")

		rng := rand.New(rand.NewSource(49))
		for _, width := range []int{1, 7, 8, 17, 32, 40} {
			for _, n := range []int{0, 1, 3, 4, 33} {
				what := fmt.Sprintf("width %d rows %d", width, n)
				a, b := gateRandom(rng, n*width), gateRandom(rng, n*width)
				zr := gateRandom(rng, 2*n*width)

				dst, check := guarded(make([]float32, n*width))
				AddReLU(dst, a, b)
				sameBits(t, "AddReLU "+what, dst, refAddReLU(a, b))
				check(t, "AddReLU "+what)

				dst, check = guarded(make([]float32, n*width))
				GateMul(dst, zr, a, width)
				sameBits(t, "GateMul "+what, dst, refGateMul(zr, a, n, width))
				check(t, "GateMul "+what)

				h, check := guarded(a)
				want := refGateBlend(h, zr, b, n, width)
				GateBlend(h, zr, b, width)
				sameBits(t, "GateBlend "+what, h, want)
				check(t, "GateBlend "+what)
			}
		}
	})
}

// TestAddReLUKeepsNaNAndPlusZero spells out the two inputs a vector max gets
// wrong by default: a NaN must come out a NaN — the serving path turns a NaN
// prediction into a typed error, and a ReLU that answered 0 would hide it —
// and max(−0, 0) is +0.
func TestAddReLUKeepsNaNAndPlusZero(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		nan, negZero := float32(math.NaN()), float32(math.Copysign(0, -1))
		// 9 wide: lanes of the vector group and the scalar tail see each case.
		a := []float32{nan, 1, negZero, negZero, -3, 2, 0, nan, negZero}
		b := []float32{1, nan, negZero, 0, 1, 1, 0, nan, negZero}
		dst := make([]float32, len(a))
		AddReLU(dst, a, b)
		for _, i := range []int{0, 1, 7} {
			if dst[i] == dst[i] {
				t.Errorf("max(%v+%v, 0) = %v, want NaN", a[i], b[i], dst[i])
			}
		}
		for _, i := range []int{2, 3, 4, 6, 8} {
			if math.Float32bits(dst[i]) != 0 {
				t.Errorf("max(%v+%v, 0) = %v (%08x), want +0", a[i], b[i], dst[i], math.Float32bits(dst[i]))
			}
		}
		if dst[5] != 3 {
			t.Errorf("max(2+1, 0) = %v", dst[5])
		}
	})
}

// TestGateKernelPanics: the assembly indexes by row from the lengths alone
// and the arena hands out neighbours, so a wrong length or an output that
// overlaps an operand fails loudly on every path; dst = a in place is the
// one overlap AddReLU allows, and equals the out-of-place answer.
func TestGateKernelPanics(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		expectPanic := func(name string, f func()) {
			t.Helper()
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}
		buf := make([]float32, 128)
		rng := rand.New(rand.NewSource(50))
		for i := range buf {
			buf[i] = float32(rng.NormFloat64())
		}
		want := refAddReLU(buf[:27], buf[32:59])
		AddReLU(buf[:27], buf[:27], buf[32:59])
		sameBits(t, "AddReLU in place", buf[:27], want)

		expectPanic("AddReLU dst is b", func() { AddReLU(buf[:16], buf[16:32], buf[:16]) })
		expectPanic("AddReLU dst overlaps a, shifted", func() { AddReLU(buf[4:20], buf[:16], buf[32:48]) })
		expectPanic("AddReLU dst overlaps b, shifted", func() { AddReLU(buf[:16], buf[32:48], buf[8:24]) })
		expectPanic("AddReLU short a", func() { AddReLU(buf[:16], buf[16:31], buf[32:48]) })
		expectPanic("AddReLU long b", func() { AddReLU(buf[:15], buf[16:31], buf[32:48]) })

		// 2 rows of width 8: out and x are 16 long, the gates 32.
		out, x, zr := buf[:16], buf[16:32], buf[32:64]
		for name, kernel := range map[string]func(out, zr, x []float32, width int){
			"GateMul": GateMul[float32], "GateBlend": GateBlend[float32],
		} {
			kernel(out, zr, x, 8) // the shapes the cases below each break one of
			expectPanic(name+" short x", func() { kernel(out, zr, x[:15], 8) })
			expectPanic(name+" short gates", func() { kernel(out, zr[:31], x, 8) })
			expectPanic(name+" gates as wide as out", func() { kernel(out, zr[:16], x, 8) })
			expectPanic(name+" ragged last row", func() { kernel(out[:15], zr[:30], x[:15], 8) })
			expectPanic(name+" width 0 with data", func() { kernel(out, zr, x, 0) })
			expectPanic(name+" negative width", func() { kernel(out, zr, x, -8) })
			expectPanic(name+" output is x", func() { kernel(out, zr, out, 8) })
			expectPanic(name+" output overlaps x, shifted", func() { kernel(out, zr, buf[8:24], 8) })
			expectPanic(name+" output inside the gates", func() { kernel(buf[40:56], zr, x, 8) })
			kernel(nil, nil, nil, 0) // no rows of no width: nothing to do
		}
	})
}

// The gate kernels at the serving shape — 32 rows × 32 hidden units, one
// GRU step of a full wire frame — and the flat ReLU over the same 1 024.
func benchGate(b *testing.B, run func(out, zr, x, y []float32)) {
	rng := rand.New(rand.NewSource(1))
	out, x, y, zr := make([]float32, 1024), make([]float32, 1024), make([]float32, 1024), make([]float32, 2048)
	for _, s := range [][]float32{out, x, y, zr} {
		for i := range s {
			s[i] = rng.Float32()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(out, zr, x, y)
	}
}

func BenchmarkAddReLU32_32x32(b *testing.B) {
	benchGate(b, func(out, _, x, y []float32) { AddReLU(out, x, y) })
}

func BenchmarkGateMul32_32x32(b *testing.B) {
	benchGate(b, func(out, zr, x, _ []float32) { GateMul(out, zr, x, 32) })
}

func BenchmarkGateBlend32_32x32(b *testing.B) {
	benchGate(b, func(out, zr, x, _ []float32) { GateBlend(out, zr, x, 32) })
}
