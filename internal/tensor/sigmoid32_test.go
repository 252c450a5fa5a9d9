package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// minNormal32 is 2⁻¹²⁶, the smallest normal float32: the kernel must never
// hand the r⊙h multiply that follows it a subnormal.
const minNormal32 = 0x1p-126

// onBothPaths runs f against the vector kernels (when the CPU has them)
// and again with useAsm forced off, so the scalar twin faces the same
// table on every platform.
func onBothPaths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	if useAsm {
		t.Run("asm", f)
	}
	t.Run("scalar", func(t *testing.T) {
		defer func(old bool) { useAsm = old }(useAsm)
		useAsm = false
		f(t)
	})
}

func ulps32(a, b float32) int64 {
	d := int64(int32(math.Float32bits(a))) - int64(int32(math.Float32bits(b)))
	if d < 0 {
		return -d
	}
	return d
}

// sigmoidInputs is a dense sweep of [−100, 100] plus N(0, 8²) samples, each
// x split into a+b so the kernel's own add is exercised.
func sigmoidInputs() (a, b []float32) {
	rng := rand.New(rand.NewSource(46))
	add := func(x float32) {
		p := x * float32(rng.Float64())
		a, b = append(a, p), append(b, x-p)
	}
	for x := float32(-100); x <= 100; x += 1.0 / 2048 {
		add(x)
	}
	for i := 0; i < 200000; i++ {
		add(float32(rng.NormFloat64() * 8))
	}
	for len(a)%8 != 0 {
		add(0)
	}
	return a, b
}

// TestSigmoidAdd32Accuracy bounds both implementations against the float64
// logistic and against each other.
func TestSigmoidAdd32Accuracy(t *testing.T) {
	a, b := sigmoidInputs()
	scalar := make([]float32, len(a))
	for i := range a {
		scalar[i] = sigmoidAddScalar32(a[i], b[i])
	}
	check := func(name string, got []float32) {
		worst := 0.0
		for i, g := range got {
			x := a[i] + b[i]
			switch {
			case x > sigClamp:
				if g != 1 {
					t.Fatalf("%s: σ(%v) = %v, want exactly 1", name, x, g)
				}
			case x < -sigClamp:
				if g < minNormal32 || g > 1.7e-38 {
					t.Fatalf("%s: σ(%v) = %v, want the clamped normal ≈1.6e-38", name, x, g)
				}
			default:
				ref := 1 / (1 + math.Exp(-float64(x)))
				rel := math.Abs(float64(g)-ref) / ref
				if rel > 4e-7 {
					t.Fatalf("%s: σ(%v) = %v, float64 says %v (rel %.3g)", name, x, g, ref, rel)
				}
				worst = math.Max(worst, rel)
			}
		}
		t.Logf("%s: %d points, max relative error %.3g", name, len(got), worst)
	}
	check("scalar", scalar)
	if !useAsm {
		return
	}
	asm := make([]float32, len(a))
	if n := sigmoidAddAsm32(asm, a, b); n != len(a) {
		t.Fatalf("vector kernel wrote %d of %d", n, len(a))
	}
	check("asm", asm)
	for i := range asm {
		if u := ulps32(asm[i], scalar[i]); u > 2 {
			t.Fatalf("σ(%v): vector %v vs scalar %v, %d ulp apart", a[i]+b[i], asm[i], scalar[i], u)
		}
	}
}

// TestSigmoidAdd32Tails runs every length 0–40 at every slice offset 0–7:
// whole groups of 8, scalar tails, unaligned loads. The element after dst
// is a canary.
func TestSigmoidAdd32Tails(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(47))
		a, b, dst := make([]float32, 64), make([]float32, 64), make([]float32, 64)
		for i := range a {
			a[i], b[i] = float32(rng.NormFloat64()*4), float32(rng.NormFloat64()*4)
		}
		for off := 0; off < 8; off++ {
			for n := 0; n <= 40; n++ {
				for i := range dst {
					dst[i] = -7
				}
				SigmoidAdd(dst[off:off+n], a[off:off+n], b[off:off+n])
				for i := 0; i < n; i++ {
					if want := sigmoidAddScalar32(a[off+i], b[off+i]); ulps32(dst[off+i], want) > 2 {
						t.Fatalf("off %d len %d element %d: %v, want %v", off, n, i, dst[off+i], want)
					}
				}
				if dst[off+n] != -7 || (off > 0 && dst[off-1] != -7) {
					t.Fatalf("off %d len %d: wrote outside dst", off, n)
				}
			}
		}
	})
}

// TestSigmoidAdd32Special pins the edge inputs: NaN propagates (the clamp
// must not swallow it), infinities and huge magnitudes saturate to 1 or to
// a normal float32 — 0 would do, a subnormal would not.
func TestSigmoidAdd32Special(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		nan, inf := float32(math.NaN()), float32(math.Inf(1))
		// 9 wide, so lane 0 of the vector group and the scalar tail both see
		// a NaN.
		a := []float32{nan, inf, -inf, -200, 200, 0, 3, -87.5, nan}
		b := []float32{1, 1, 1, 0, 0, 0, nan, 0, nan}
		dst := make([]float32, len(a))
		SigmoidAdd(dst, a, b)
		for _, i := range []int{0, 6, 8} {
			if dst[i] == dst[i] {
				t.Errorf("σ(%v+%v) = %v, want NaN", a[i], b[i], dst[i])
			}
		}
		for _, i := range []int{1, 4} {
			if dst[i] != 1 {
				t.Errorf("σ(%v) = %v, want 1", a[i], dst[i])
			}
		}
		for _, i := range []int{2, 3, 7} {
			if dst[i] != 0 && (dst[i] < minNormal32 || dst[i] > 1.7e-38) {
				t.Errorf("σ(%v) = %v, want 0 or a normal float32 near 1.6e-38", a[i], dst[i])
			}
		}
		if ulps32(dst[5], 0.5) > 1 {
			t.Errorf("σ(0) = %v, want 0.5", dst[5])
		}
	})
}

// TestSigmoidAdd32Alias: dst may be a itself — the GRU computes its gates in
// place — and that must equal the out-of-place result; every other overlap
// and any length mismatch panics like the GEMMs.
func TestSigmoidAdd32Alias(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(48))
		a, b := make([]float32, 27), make([]float32, 27)
		for i := range a {
			a[i], b[i] = float32(rng.NormFloat64()*4), float32(rng.NormFloat64()*4)
		}
		want := make([]float32, len(a))
		SigmoidAdd(want, a, b)
		SigmoidAdd(a, a, b)
		for i := range a {
			if a[i] != want[i] {
				t.Fatalf("in place element %d: %v, out of place %v", i, a[i], want[i])
			}
		}

		expectPanic := func(name string, f func()) {
			t.Helper()
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}
		buf := make([]float32, 48)
		expectPanic("dst is b", func() { SigmoidAdd(buf[:16], buf[16:32], buf[:16]) })
		expectPanic("dst overlaps a, shifted", func() { SigmoidAdd(buf[4:20], buf[:16], buf[32:48]) })
		expectPanic("dst overlaps b, shifted", func() { SigmoidAdd(buf[:16], buf[32:48], buf[8:24]) })
		expectPanic("short a", func() { SigmoidAdd(buf[:16], buf[16:31], buf[32:48]) })
		expectPanic("long b", func() { SigmoidAdd(buf[:15], buf[16:31], buf[32:48]) })
	})
}

// BenchmarkSigmoidAdd32 is the gate loop of a B32 step: 32 rows × 2H = 2048
// logistic evaluations.
func BenchmarkSigmoidAdd32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y, dst := make([]float32, 2048), make([]float32, 2048), make([]float32, 2048)
	for i := range x {
		x[i], y[i] = float32(rng.NormFloat64()*2), float32(rng.NormFloat64()*2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SigmoidAdd(dst, x, y)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(dst)), "ns/elem")
}
