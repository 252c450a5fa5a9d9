package tensor

import (
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The float64 logistic has no tolerance: both entry points must give the Go
// expression's bits for every input, on the kernel and on the Go loop alike.
func sigmoidRef(a, b float64) float64 { return 1 / (1 + math.Exp(-(a + b))) }

func sigmoidRef1(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// kernelRuns reports whether SigmoidAdd[float64] is reaching the assembly
// on this machine and path.
func kernelRuns() bool {
	var z [4]float64
	return sigmoidAddAsm64(z[:], z[:], z[:], 1) == 4
}

// checkSigmoid64 runs both entry points over a and b (Sigmoid over a+b, the
// sum it is handed already made) and fails on the first bit that differs
// from the Go expression.
func checkSigmoid64(t *testing.T, what string, a, b []float64) {
	t.Helper()
	dst := make([]float64, len(a))
	SigmoidAdd(dst, a, b)
	for i := range dst {
		if want := sigmoidRef(a[i], b[i]); math.Float64bits(dst[i]) != math.Float64bits(want) {
			t.Fatalf("%s: SigmoidAdd element %d of %d: σ(%v + %v) = %x, Go expression %x", what, i, len(a), a[i], b[i], math.Float64bits(dst[i]), math.Float64bits(want))
		}
	}
	x := make([]float64, len(a))
	for i := range x {
		x[i] = a[i] + b[i]
	}
	Sigmoid(dst, x)
	for i := range dst {
		if want := sigmoidRef1(x[i]); math.Float64bits(dst[i]) != math.Float64bits(want) {
			t.Fatalf("%s: Sigmoid element %d of %d: σ(%v) = %x, Go expression %x", what, i, len(x), x[i], math.Float64bits(dst[i]), math.Float64bits(want))
		}
	}
}

// sigmoid64Specials are the inputs at and around every branch of math.Exp
// the kernel leaves to Go: the signed zeros and smallest subnormals (exp ≈ 1),
// the 708 bound and the float past it, the overflow threshold, the
// underflow to a subnormal and to 0, the infinities, NaN and huge finite
// values.
func sigmoid64Specials() []float64 {
	s := []float64{math.NaN()}
	for _, v := range []float64{0, 5e-324, math.Inf(1), 708, math.Nextafter(708, 1000), 709.78, 745, 1e300} {
		s = append(s, v, -v)
	}
	return s
}

// TestSigmoidAdd64Special puts every special value in every lane of a group
// of 4 whose other lanes are ordinary, followed by an ordinary group the
// kernel must resume on; then the specials side by side, and each special
// split into an addend pair that meets at it or cancels.
func TestSigmoidAdd64Special(t *testing.T) {
	// exp(−1.09) is one of the inputs the two sequences of math/exp_amd64.s
	// round apart; with AVX2+FMA and math.Exp on the FMA one, the probe must
	// have let the kernel on, or this battery would test the Go loop twice.
	onFMA := runtime.GOARCH == "amd64" && math.Float64bits(math.Exp(-1.09)) == 0x3fd584922f36284b
	t.Logf("kernel runs: %v (AVX2+FMA %v, math.Exp on its FMA sequence %v)", kernelRuns(), useAsm, onFMA)
	if useAsm && onFMA && !kernelRuns() {
		t.Fatal("the probe switched the kernel off while math.Exp runs the sequence it replays")
	}
	onBothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(61))
		specials := sigmoid64Specials()
		for _, s := range specials {
			for lane := 0; lane < 4; lane++ {
				a, b := make([]float64, 8), make([]float64, 8)
				for i := range a {
					a[i], b[i] = rng.NormFloat64()*4, rng.NormFloat64()
				}
				a[lane], b[lane] = s, 0
				checkSigmoid64(t, "special in a", a, b)
				a[lane], b[lane] = 0, s
				checkSigmoid64(t, "special in b", a, b)
			}
		}
		checkSigmoid64(t, "all specials", specials, make([]float64, len(specials)))
		var a, b []float64
		for _, s := range specials {
			a, b = append(a, s, s/2, -s, math.Copysign(0, -1)), append(b, 0, s/2, s, math.Copysign(0, -1))
		}
		checkSigmoid64(t, "split specials", a, b)
		// Sums at which the 1/6 step of the polynomial, done as a multiply
		// and an add instead of one FMA, moves σ by an ulp: about one input in
		// 7 M does, so the sweep below alone would miss it. Padded to a whole
		// group, so the kernel and not the Go tail takes them.
		w := []float64{-494.5701088363833, -160.4621969091974, 1.5, -1.5}
		checkSigmoid64(t, "rounding witnesses", w, make([]float64, len(w)))
	})
}

// TestSigmoidAdd64Salted is the sweep: normal and uniform-over-±750 sums and
// raw random bit patterns (NaN payloads, subnormals, infinities), over a
// million of each kind, from a seed salted by the clock and logged.
func TestSigmoidAdd64Salted(t *testing.T) {
	salt := time.Now().UnixNano()
	t.Logf("salt %d", salt)
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	onBothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(salt))
		a, b := make([]float64, n), make([]float64, n)
		for i := range a {
			a[i], b[i] = rng.NormFloat64()*16, rng.NormFloat64()
		}
		checkSigmoid64(t, "normal", a, b)
		for i := range a {
			a[i], b[i] = (rng.Float64()*2-1)*750, rng.Float64()*2-1
		}
		checkSigmoid64(t, "uniform ±750", a, b)
		for i := range a {
			a[i], b[i] = math.Float64frombits(rng.Uint64()), 0
			if i%2 == 1 {
				b[i] = math.Float64frombits(rng.Uint64())
			}
		}
		checkSigmoid64(t, "random bits", a, b)
	})
}

// TestSigmoidAdd64Tails runs every length 0–19 at every slice offset 0–4 —
// whole groups, Go tails, unaligned loads, and out-of-range values at
// scattered positions so declined groups fall everywhere — with canaries on
// both sides of dst.
func TestSigmoidAdd64Tails(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(62))
		a, b := make([]float64, 32), make([]float64, 32)
		for i := range a {
			a[i], b[i] = rng.NormFloat64()*4, rng.NormFloat64()*4
		}
		a[6], a[13], b[17] = 800, math.NaN(), math.Inf(-1)
		const canary = -7
		dst, x := make([]float64, 32), make([]float64, 32)
		for i := range x {
			x[i] = a[i] + b[i]
		}
		for off := 0; off <= 4; off++ {
			for n := 0; n <= 19; n++ {
				for _, one := range []bool{false, true} {
					for i := range dst {
						dst[i] = canary
					}
					if one {
						Sigmoid(dst[off:off+n], x[off:off+n])
					} else {
						SigmoidAdd(dst[off:off+n], a[off:off+n], b[off:off+n])
					}
					for i := off; i < off+n; i++ {
						if want := sigmoidRef1(x[i]); math.Float64bits(dst[i]) != math.Float64bits(want) {
							t.Fatalf("one operand %v, off %d len %d element %d: %v, want %v", one, off, n, i-off, dst[i], want)
						}
					}
					if dst[off+n] != canary || (off > 0 && dst[off-1] != canary) {
						t.Fatalf("one operand %v, off %d len %d: wrote outside dst", one, off, n)
					}
				}
			}
		}
	})
}

// TestSigmoidAdd64Alias: dst may be the first operand of either entry point
// and must then equal the out-of-place answer; every other overlap, and any
// length mismatch, panics.
func TestSigmoidAdd64Alias(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(63))
		a, b := make([]float64, 27), make([]float64, 27)
		for i := range a {
			a[i], b[i] = rng.NormFloat64()*4, rng.NormFloat64()*4
		}
		a[9] = 1e300
		want, want1 := make([]float64, len(a)), make([]float64, len(a))
		SigmoidAdd(want, a, b)
		Sigmoid(want1, a)
		x := append([]float64(nil), a...)
		Sigmoid(x, x)
		SigmoidAdd(a, a, b)
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(want[i]) {
				t.Fatalf("SigmoidAdd in place element %d: %v, out of place %v", i, a[i], want[i])
			}
			if math.Float64bits(x[i]) != math.Float64bits(want1[i]) {
				t.Fatalf("Sigmoid in place element %d: %v, out of place %v", i, x[i], want1[i])
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
		buf := make([]float64, 48)
		expectPanic("dst is b", func() { SigmoidAdd(buf[:16], buf[16:32], buf[:16]) })
		expectPanic("dst overlaps a, shifted", func() { SigmoidAdd(buf[4:20], buf[:16], buf[32:48]) })
		expectPanic("dst overlaps b, shifted", func() { SigmoidAdd(buf[:16], buf[32:48], buf[8:24]) })
		expectPanic("short a", func() { SigmoidAdd(buf[:16], buf[16:31], buf[32:48]) })
		expectPanic("long b", func() { SigmoidAdd(buf[:15], buf[16:31], buf[32:48]) })
		expectPanic("Sigmoid overlap, shifted", func() { Sigmoid(buf[4:20], buf[:16]) })
		expectPanic("Sigmoid length", func() { Sigmoid(buf[:16], buf[16:31]) })
	})
}

// TestSigmoid64UnderFMAOff re-runs the battery in a child test binary with
// GODEBUG=cpu.fma=off, which moves math.Exp to its non-FMA sequence without
// changing what CPUID reports. The kernel replays the FMA sequence, so it
// must switch itself off there (expFMA's probe) and leave every element to
// the Go expression; a kernel gated on CPUID alone fails the battery.
func TestSigmoid64UnderFMAOff(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("GODEBUG=cpu.fma moves math.Exp only on amd64")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestSigmoidAdd64", "-test.count=1", "-test.short", "-test.v")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("battery under GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "--- PASS: TestSigmoidAdd64Salted") {
		t.Fatalf("the child ran no battery:\n%s", out)
	}
	if useAsm && !strings.Contains(string(out), "kernel runs: false") {
		t.Fatalf("the kernel still runs with math.Exp off its FMA sequence:\n%s", out)
	}
}

// BenchmarkSigmoidAdd64 is BenchmarkSigmoidAdd32's gate loop in float64: a
// B32 step's 32 rows × 2H = 2048 logistic evaluations.
func BenchmarkSigmoidAdd64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y, dst := make([]float64, 2048), make([]float64, 2048), make([]float64, 2048)
	for i := range x {
		x[i], y[i] = rng.NormFloat64()*2, rng.NormFloat64()*2
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SigmoidAdd(dst, x, y)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(dst)), "ns/elem")
}
