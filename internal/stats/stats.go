// Package stats provides the statistical primitives used across the
// evaluation harness: descriptive statistics, Gaussian error modelling for
// anomaly thresholds, empirical CDFs (Figure 4), boxplot summaries
// (Figure 1), principal component analysis for embedding visualization
// (Figure 6), and the paired t-test used to compare model means (§4.1.2).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance (0 for fewer than 2 values).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Gaussian is a normal distribution N(Mu, Sigma²).
type Gaussian struct {
	Mu, Sigma float64
}

// FitGaussian estimates a Gaussian from samples. A zero-sample fit returns
// the standard normal; a single sample gives Sigma 0.
func FitGaussian(xs []float64) Gaussian {
	if len(xs) == 0 {
		return Gaussian{0, 1}
	}
	return Gaussian{Mu: Mean(xs), Sigma: StdDev(xs)}
}

// Zscore returns (x−μ)/σ; with σ=0 it returns ±Inf (or 0 at the mean),
// which makes degenerate error distributions behave as hard thresholds.
func (g Gaussian) Zscore(x float64) float64 {
	if g.Sigma == 0 {
		switch {
		case x > g.Mu:
			return math.Inf(1)
		case x < g.Mu:
			return math.Inf(-1)
		}
		return 0
	}
	return (x - g.Mu) / g.Sigma
}

// CDF returns P(X ≤ x) for the Gaussian.
func (g Gaussian) CDF(x float64) float64 {
	if g.Sigma == 0 {
		if x < g.Mu {
			return 0
		}
		return 1
	}
	return 0.5 * (1 + math.Erf(g.Zscore(x)/math.Sqrt2))
}

// Quantile returns the q-th empirical quantile (0 ≤ q ≤ 1) using linear
// interpolation between order statistics.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// ECDF is an empirical cumulative distribution function.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from samples.
func NewECDF(xs []float64) *ECDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// Points returns the step points (x_i, F(x_i)) of the ECDF, suitable for
// plotting a CDF curve like Figure 4.
func (e *ECDF) Points() (xs, fs []float64) {
	n := len(e.sorted)
	xs = append([]float64(nil), e.sorted...)
	fs = make([]float64, n)
	for i := range fs {
		fs[i] = float64(i+1) / float64(n)
	}
	return xs, fs
}

// BoxStats is the five-number summary plus mean used for Figure 1's residual
// boxplots.
type BoxStats struct {
	Min, Q1, Median, Q3, Max, Mean float64
}

// Boxplot computes a BoxStats summary of xs.
func Boxplot(xs []float64) BoxStats {
	return BoxStats{
		Min:    Quantile(xs, 0),
		Q1:     Quantile(xs, 0.25),
		Median: Quantile(xs, 0.5),
		Q3:     Quantile(xs, 0.75),
		Max:    Quantile(xs, 1),
		Mean:   Mean(xs),
	}
}

// String renders the summary compactly.
func (b BoxStats) String() string {
	return fmt.Sprintf("min=%.3f q1=%.3f med=%.3f q3=%.3f max=%.3f mean=%.3f",
		b.Min, b.Q1, b.Median, b.Q3, b.Max, b.Mean)
}

// PairedTTest performs a two-sided paired t-test on equal-length samples and
// returns the t statistic and an approximate p-value. The p-value uses the
// normal approximation for df ≥ 30 and a Student-t series otherwise, which
// is adequate for the significance-0.05 comparisons in §4.1.2.
func PairedTTest(a, b []float64) (tstat, pvalue float64, err error) {
	if len(a) != len(b) {
		return 0, 0, fmt.Errorf("stats: paired t-test needs equal lengths, got %d and %d", len(a), len(b))
	}
	n := len(a)
	if n < 2 {
		return 0, 0, fmt.Errorf("stats: paired t-test needs at least 2 pairs, got %d", n)
	}
	diff := make([]float64, n)
	for i := range a {
		diff[i] = a[i] - b[i]
	}
	md := Mean(diff)
	sd := StdDev(diff)
	if sd == 0 {
		if md == 0 {
			return 0, 1, nil
		}
		return math.Inf(sign(md)), 0, nil
	}
	tstat = md / (sd / math.Sqrt(float64(n)))
	pvalue = 2 * studentTSF(math.Abs(tstat), float64(n-1))
	return tstat, pvalue, nil
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// studentTSF returns P(T > t) for Student's t with df degrees of freedom,
// via the regularized incomplete beta function.
func studentTSF(t, df float64) float64 {
	x := df / (df + t*t)
	return 0.5 * regIncBeta(df/2, 0.5, x)
}

// regIncBeta computes the regularized incomplete beta function I_x(a,b)
// using the continued-fraction expansion (Numerical Recipes style).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(math.Log(x)*a+math.Log(1-x)*b+lbeta) / a
	if x > (a+1)/(a+b+2) {
		return 1 - regIncBeta(b, a, 1-x)
	}
	// Lentz's continued fraction.
	const eps = 1e-12
	f, c, d := 1.0, 1.0, 0.0
	for i := 0; i <= 300; i++ {
		m := i / 2
		var numerator float64
		switch {
		case i == 0:
			numerator = 1
		case i%2 == 0:
			numerator = float64(m) * (b - float64(m)) * x / ((a + 2*float64(m) - 1) * (a + 2*float64(m)))
		default:
			numerator = -(a + float64(m)) * (a + b + float64(m)) * x / ((a + 2*float64(m)) * (a + 2*float64(m) + 1))
		}
		d = 1 + numerator*d
		if math.Abs(d) < 1e-30 {
			d = 1e-30
		}
		d = 1 / d
		c = 1 + numerator/c
		if math.Abs(c) < 1e-30 {
			c = 1e-30
		}
		f *= c * d
		if math.Abs(1-c*d) < eps {
			break
		}
	}
	return front * (f - 1)
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}
