package workload

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestDailyCurveBoundsAndPeak(t *testing.T) {
	maxV, maxTod := -1.0, 0.0
	for tod := 0.0; tod < 1; tod += 0.001 {
		v := DailyCurve(tod, 0.4, 1.6)
		if v < 0.4-1e-9 || v > 1.6+1e-9 {
			t.Fatalf("curve out of bounds at %v: %v", tod, v)
		}
		if v > maxV {
			maxV, maxTod = v, tod
		}
	}
	if math.Abs(maxTod-0.625) > 0.01 {
		t.Fatalf("peak should be near 0.625, got %v", maxTod)
	}
}

func TestSelfSimilarConservesMassAndIsBursty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 256
	xs := SelfSimilar(rng, n, 0.75)
	if len(xs) != n {
		t.Fatalf("length wrong")
	}
	mean := 0.0
	for _, x := range xs {
		if x < 0 {
			t.Fatalf("negative traffic: %v", x)
		}
		mean += x
	}
	mean /= float64(n)
	if math.Abs(mean-1) > 1e-9 {
		t.Fatalf("b-model must conserve mass (mean 1), got %v", mean)
	}
	// Burstiness: coefficient of variation should be well above a
	// uniform split.
	varr := 0.0
	for _, x := range xs {
		varr += (x - mean) * (x - mean)
	}
	cv := math.Sqrt(varr/float64(n)) / mean
	if cv < 0.5 {
		t.Fatalf("traffic not bursty enough: cv=%v", cv)
	}
}

func TestSelfSimilarTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := SelfSimilar(rng, 100, 0.7) // not a power of two
	if len(xs) != 100 {
		t.Fatalf("length %d", len(xs))
	}
}

func TestSelfSimilarBiasPanics(t *testing.T) {
	for _, bad := range []float64{0.5, 1.0, 0.2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bias %v should panic", bad)
				}
			}()
			SelfSimilar(rand.New(rand.NewSource(1)), 8, bad)
		}()
	}
}

func TestSurge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := Surge(rng, 2000, 0.05, 3, 4)
	surged, base := 0, 0
	for _, x := range xs {
		switch x {
		case 3:
			surged++
		case 1:
			base++
		default:
			t.Fatalf("unexpected value %v", x)
		}
	}
	if surged == 0 || base == 0 {
		t.Fatalf("expected a mix of surge and baseline, got %d/%d", surged, base)
	}
}

func TestAR1Stationarity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := &AR1{Phi: 0.9, Std: 1}
	xs := a.Series(rng, 20000)
	mean, varr := 0.0, 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		varr += (x - mean) * (x - mean)
	}
	varr /= float64(len(xs))
	// Stationary variance is std²/(1−phi²) ≈ 5.26.
	want := 1 / (1 - 0.81)
	if math.Abs(mean) > 0.3 || math.Abs(varr-want) > want*0.25 {
		t.Fatalf("AR1 stats off: mean=%v var=%v want var≈%v", mean, varr, want)
	}
}

func TestAR1Autocorrelation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := &AR1{Phi: 0.8, Std: 1}
	xs := a.Series(rng, 30000)
	num, den := 0.0, 0.0
	for i := 1; i < len(xs); i++ {
		num += xs[i] * xs[i-1]
		den += xs[i-1] * xs[i-1]
	}
	if rho := num / den; math.Abs(rho-0.8) > 0.05 {
		t.Fatalf("lag-1 autocorrelation %v, want ≈0.8", rho)
	}
}

func TestTrafficModelStrings(t *testing.T) {
	for m, want := range map[TrafficModel]string{
		ModelDaily: "daily", ModelSelfSimilar: "self-similar",
		ModelSurge: "surge", ModelConstant: "constant",
	} {
		if m.String() != want {
			t.Fatalf("String(%d) = %q", int(m), m.String())
		}
	}
	if !strings.Contains(TrafficModel(42).String(), "42") {
		t.Fatalf("unknown model should include number")
	}
}

func TestTrafficModelGenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, m := range []TrafficModel{ModelDaily, ModelSelfSimilar, ModelSurge, ModelConstant} {
		xs := m.Generate(rng, 200, 96)
		if len(xs) != 200 {
			t.Fatalf("%v: length %d", m, len(xs))
		}
		mean := 0.0
		for _, x := range xs {
			if x < 0 {
				t.Fatalf("%v: negative load %v", m, x)
			}
			mean += x
		}
		mean /= 200
		if mean < 0.3 || mean > 3 {
			t.Fatalf("%v: mean load %v implausible", m, mean)
		}
	}
}

func TestTrafficModelGenerateUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	TrafficModel(42).Generate(rand.New(rand.NewSource(1)), 10, 96)
}

// Property: self-similar traffic is nonnegative and mass-conserving for any
// valid bias and length.
func TestSelfSimilarProperty(t *testing.T) {
	f := func(seed int64, biasRaw, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		bias := 0.55 + 0.4*float64(biasRaw)/255
		n := 1 + int(nRaw)
		xs := SelfSimilar(rng, n, bias)
		sum := 0.0
		for _, x := range xs {
			if x < 0 {
				return false
			}
			sum += x
		}
		// Truncation can drop mass; the retained prefix is still finite
		// and nonnegative with sane totals.
		return !math.IsNaN(sum) && !math.IsInf(sum, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Series generates n consecutive AR(1) samples.
func (a *AR1) Series(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = a.Next(rng)
	}
	return out
}
