package htm

import (
	"math"
	"math/rand"
	"testing"
)

func TestScoresInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := New(Config{})
	for i := 0; i < 500; i++ {
		s := d.Step(rng.NormFloat64())
		if s < 0 || s > 1 || math.IsNaN(s) {
			t.Fatalf("score out of range: %v", s)
		}
	}
}

func TestWarmupScoresZero(t *testing.T) {
	d := New(Config{Warmup: 10})
	for i := 0; i < 10; i++ {
		if s := d.Step(float64(i)); s != 0 {
			t.Fatalf("warmup step %d scored %v", i, s)
		}
	}
}

func TestLearnedPeriodicPatternScoresLow(t *testing.T) {
	d := New(Config{Buckets: 20, Warmup: 40})
	period := []float64{1, 3, 5, 7, 5, 3}
	var last float64
	for i := 0; i < 600; i++ {
		last = d.Step(period[i%len(period)])
	}
	if last > 0.9 {
		t.Fatalf("well-learned pattern should not look anomalous: %v", last)
	}
}

func TestSuddenLevelShiftSpikesScore(t *testing.T) {
	d := New(Config{Buckets: 30, Warmup: 20, ShortWindow: 3, LongWindow: 100})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		d.Step(10 + rng.NormFloat64()*0.2)
	}
	// Push the range out first so the shift lands in fresh buckets.
	peak := 0.0
	for i := 0; i < 10; i++ {
		s := d.Step(25 + rng.NormFloat64()*0.2)
		if s > peak {
			peak = s
		}
	}
	if peak < 0.9 {
		t.Fatalf("level shift should spike the likelihood, peak=%v", peak)
	}
}

func TestDetectLengthAndDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	series := make([]float64, 200)
	for i := range series {
		series[i] = math.Sin(float64(i)/5) + rng.NormFloat64()*0.05
	}
	a, b := New(Config{}), New(Config{})
	for i, v := range series {
		if a.Step(v) != b.Step(v) {
			t.Fatalf("step %d: detector must be deterministic", i)
		}
	}
}

func TestConstantSeries(t *testing.T) {
	d := New(Config{})
	for i := 0; i < 200; i++ {
		s := d.Step(5)
		if math.IsNaN(s) {
			t.Fatalf("NaN score on constant input")
		}
	}
}

func TestDefaultsAppliedForZeroConfig(t *testing.T) {
	d := New(Config{})
	def := DefaultConfig()
	if d.cfg.Buckets != def.Buckets || d.cfg.LongWindow != def.LongWindow {
		t.Fatalf("defaults not applied: %+v", d.cfg)
	}
}

func TestAdaptiveRangeExpansion(t *testing.T) {
	d := New(Config{Buckets: 10})
	d.Step(0)
	d.Step(1)
	if d.min != 0 || d.max != 1 {
		t.Fatalf("range wrong: [%v,%v]", d.min, d.max)
	}
	d.Step(-5)
	d.Step(10)
	if d.min != -5 || d.max != 10 {
		t.Fatalf("range should expand: [%v,%v]", d.min, d.max)
	}
	if b := d.bucket(10); b != 9 {
		t.Fatalf("max value should land in last bucket, got %d", b)
	}
}

func TestRangeFreezesAfterWarmup(t *testing.T) {
	d := New(Config{Buckets: 10, Warmup: 5})
	for i := 0; i < 6; i++ {
		d.Step(float64(i)) // range adapts over [0,5] then freezes with margin
	}
	if !d.frozen {
		t.Fatalf("range should freeze after warmup")
	}
	frozenMin, frozenMax := d.min, d.max
	d.Step(1000)
	if d.min != frozenMin || d.max != frozenMax {
		t.Fatalf("frozen range must not move")
	}
	if b := d.bucket(1000); b != 9 {
		t.Fatalf("out-of-range value should clip to last bucket, got %d", b)
	}
	if b := d.bucket(-1000); b != 0 {
		t.Fatalf("out-of-range value should clip to first bucket, got %d", b)
	}
}

func TestThresholdConstant(t *testing.T) {
	if Threshold <= 0.5 || Threshold >= 1 {
		t.Fatalf("Threshold should sit in the saturation region below 1: %v", Threshold)
	}
}
