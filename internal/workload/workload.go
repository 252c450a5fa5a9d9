// Package workload provides the traffic and load models used by the
// synthetic data generators: daily load curves (the paper's "typical daily
// load curve" traffic model), self-similar bursty traffic (the
// "self-similar" traffic model from Table 1), surge form factors, and an
// AR(1) noise process for resource-usage dynamics.
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// DailyCurve returns a smooth diurnal load multiplier in [low, high] for a
// time-of-day fraction tod ∈ [0,1): low demand at night, peaking in the
// afternoon.
func DailyCurve(tod, low, high float64) float64 {
	// Peak at 15:00 (tod ≈ 0.625).
	phase := 2 * math.Pi * (tod - 0.625)
	return low + (high-low)*(0.5+0.5*math.Cos(phase))
}

// SelfSimilar generates n samples of bursty, approximately self-similar
// traffic using the multiscale b-model (biased cascade): total volume is
// recursively split with bias b, producing burstiness across time scales.
// The output is normalized to mean 1.
func SelfSimilar(rng *rand.Rand, n int, bias float64) []float64 {
	if bias <= 0.5 || bias >= 1 {
		panic(fmt.Sprintf("workload: self-similar bias %v must be in (0.5,1)", bias))
	}
	// Build at the next power of two and truncate.
	size := 1
	for size < n {
		size *= 2
	}
	out := make([]float64, size)
	out[0] = float64(size)
	for width := size; width > 1; width /= 2 {
		for start := 0; start < size; start += width {
			v := out[start]
			left := bias
			if rng.Float64() < 0.5 {
				left = 1 - bias
			}
			out[start] = v * left
			out[start+width/2] = v * (1 - left)
		}
	}
	return out[:n]
}

// Surge produces a baseline-1 load with occasional multiplicative surges of
// the given magnitude and duration (in samples); prob is the per-sample
// probability of a surge starting.
func Surge(rng *rand.Rand, n int, prob, magnitude float64, duration int) []float64 {
	out := make([]float64, n)
	remaining := 0
	for i := range out {
		if remaining == 0 && rng.Float64() < prob {
			remaining = duration
		}
		if remaining > 0 {
			out[i] = magnitude
			remaining--
		} else {
			out[i] = 1
		}
	}
	return out
}

// AR1 is a first-order autoregressive process x_t = phi·x_{t−1} + ε,
// ε ~ N(0, std²), used for temporally correlated noise in RU series.
type AR1 struct {
	Phi, Std float64
	state    float64
}

// Next advances the process and returns the new value.
func (a *AR1) Next(rng *rand.Rand) float64 {
	a.state = a.Phi*a.state + rng.NormFloat64()*a.Std
	return a.state
}

// TrafficModel names the test-case traffic shapes from Table 1.
type TrafficModel int

// Supported traffic models.
const (
	ModelDaily TrafficModel = iota
	ModelSelfSimilar
	ModelSurge
	ModelConstant
)

// String implements fmt.Stringer.
func (m TrafficModel) String() string {
	switch m {
	case ModelDaily:
		return "daily"
	case ModelSelfSimilar:
		return "self-similar"
	case ModelSurge:
		return "surge"
	case ModelConstant:
		return "constant"
	}
	return fmt.Sprintf("TrafficModel(%d)", int(m))
}

// Generate produces n samples of normalized load (mean ≈ 1) for the model.
// stepsPerDay controls the diurnal period for ModelDaily.
func (m TrafficModel) Generate(rng *rand.Rand, n, stepsPerDay int) []float64 {
	switch m {
	case ModelDaily:
		out := make([]float64, n)
		for i := range out {
			tod := float64(i%stepsPerDay) / float64(stepsPerDay)
			out[i] = DailyCurve(tod, 0.4, 1.6) * (1 + rng.NormFloat64()*0.05)
		}
		return out
	case ModelSelfSimilar:
		out := SelfSimilar(rng, n, 0.72)
		for i := range out {
			if out[i] < 0.05 {
				out[i] = 0.05
			}
		}
		return out
	case ModelSurge:
		return Surge(rng, n, 0.02, 2.5, stepsPerDay/12+1)
	case ModelConstant:
		out := make([]float64, n)
		for i := range out {
			out[i] = 1 + rng.NormFloat64()*0.03
		}
		return out
	}
	panic(fmt.Sprintf("workload: unknown traffic model %d", int(m)))
}
