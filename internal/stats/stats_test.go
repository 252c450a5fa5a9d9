package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if !almost(Variance(xs), 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v", Variance(xs))
	}
	if !almost(StdDev(xs), math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatalf("StdDev = %v", StdDev(xs))
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatalf("degenerate inputs mishandled")
	}
}

func TestFitGaussianAndZscore(t *testing.T) {
	g := FitGaussian([]float64{1, 2, 3})
	if g.Mu != 2 || !almost(g.Sigma, 1, 1e-12) {
		t.Fatalf("fit wrong: %+v", g)
	}
	if !almost(g.Zscore(4), 2, 1e-12) {
		t.Fatalf("Zscore wrong")
	}
	empty := FitGaussian(nil)
	if empty.Mu != 0 || empty.Sigma != 1 {
		t.Fatalf("empty fit should be standard normal: %+v", empty)
	}
	deg := Gaussian{Mu: 5, Sigma: 0}
	if !math.IsInf(deg.Zscore(6), 1) || !math.IsInf(deg.Zscore(4), -1) || deg.Zscore(5) != 0 {
		t.Fatalf("degenerate zscore wrong")
	}
}

func TestGaussianCDF(t *testing.T) {
	g := Gaussian{Mu: 0, Sigma: 1}
	if !almost(g.CDF(0), 0.5, 1e-12) {
		t.Fatalf("CDF(0) = %v", g.CDF(0))
	}
	if !almost(g.CDF(1.96), 0.975, 1e-3) {
		t.Fatalf("CDF(1.96) = %v", g.CDF(1.96))
	}
	deg := Gaussian{Mu: 1, Sigma: 0}
	if deg.CDF(0.5) != 0 || deg.CDF(1.5) != 1 {
		t.Fatalf("degenerate CDF wrong")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 4 {
		t.Fatalf("extremes wrong")
	}
	if !almost(Quantile(xs, 0.5), 2.5, 1e-12) {
		t.Fatalf("median = %v", Quantile(xs, 0.5))
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatalf("empty quantile should be NaN")
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	cases := map[float64]float64{0.5: 0, 1: 0.25, 2: 0.75, 2.5: 0.75, 3: 1, 9: 1}
	for x, want := range cases {
		if got := e.At(x); !almost(got, want, 1e-12) {
			t.Fatalf("ECDF(%v) = %v, want %v", x, got, want)
		}
	}
	xs, fs := e.Points()
	if len(xs) != 4 || fs[3] != 1 {
		t.Fatalf("Points wrong: %v %v", xs, fs)
	}
	for i := 1; i < len(fs); i++ {
		if fs[i] < fs[i-1] || xs[i] < xs[i-1] {
			t.Fatalf("ECDF points must be monotone")
		}
	}
}

// Property: ECDF is monotone nondecreasing and bounded in [0,1].
func TestECDFMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		e := NewECDF(xs)
		prev := -1.0
		for q := -30.0; q <= 30; q += 1.5 {
			v := e.At(q)
			if v < prev || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBoxplot(t *testing.T) {
	b := Boxplot([]float64{1, 2, 3, 4, 5})
	if b.Min != 1 || b.Max != 5 || b.Median != 3 || b.Q1 != 2 || b.Q3 != 4 || b.Mean != 3 {
		t.Fatalf("boxplot wrong: %v", b)
	}
	if b.String() == "" {
		t.Fatalf("String empty")
	}
}

func TestPairedTTestIdentical(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	tstat, p, err := PairedTTest(a, a)
	if err != nil || tstat != 0 || p != 1 {
		t.Fatalf("identical samples: t=%v p=%v err=%v", tstat, p, err)
	}
}

func TestPairedTTestClearDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 40
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = a[i] + 2 + rng.NormFloat64()*0.1
	}
	_, p, err := PairedTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if p > 1e-6 {
		t.Fatalf("clear difference should have tiny p, got %v", p)
	}
}

func TestPairedTTestNoDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 50
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = a[i] + rng.NormFloat64()*0.01
	}
	_, p, err := PairedTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.001 {
		t.Fatalf("no systematic difference should not be ultra-significant, p=%v", p)
	}
}

func TestPairedTTestErrors(t *testing.T) {
	if _, _, err := PairedTTest([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatalf("length mismatch should error")
	}
	if _, _, err := PairedTTest([]float64{1}, []float64{2}); err == nil {
		t.Fatalf("n<2 should error")
	}
}

func TestPairedTTestConstantShift(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{2, 3, 4}
	tstat, p, err := PairedTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(tstat, -1) || p != 0 {
		t.Fatalf("constant shift: t=%v p=%v", tstat, p)
	}
}

func TestStudentTAgainstKnownValues(t *testing.T) {
	// Two-sided p for t=2.045, df=29 is ~0.05.
	p := 2 * studentTSF(2.045, 29)
	if !almost(p, 0.05, 0.003) {
		t.Fatalf("studentTSF(2.045,29): p=%v", p)
	}
	// t=12.706, df=1 → p≈0.05.
	p = 2 * studentTSF(12.706, 1)
	if !almost(p, 0.05, 0.003) {
		t.Fatalf("studentTSF(12.706,1): p=%v", p)
	}
}

// At returns the fraction of samples ≤ x.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}
