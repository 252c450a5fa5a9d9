package anomaly

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"env2vec/internal/dataset"
	"env2vec/internal/envmeta"
	"env2vec/internal/tensor"
)

func TestFitErrorModel(t *testing.T) {
	pred := []float64{10, 11, 12}
	actual := []float64{9, 11, 13}
	em := FitErrorModel(pred, actual)
	if em.Samples != 3 || em.Dist.Mu != 0 {
		t.Fatalf("error model wrong: %+v", em)
	}
	if em.Dist.Sigma == 0 {
		t.Fatalf("sigma should be nonzero")
	}
}

func TestFlagGammaThreshold(t *testing.T) {
	// Errors: mostly ±1, one +10 outlier.
	actual := []float64{0, 0, 0, 0, 0, 0}
	pred := []float64{1, -1, 1, -1, 1, 10}
	em := FitErrorModel(pred[:5], actual[:5]) // μ≈0.2, σ≈1.1
	flags := Flag(pred, actual, em, Config{Gamma: 2})
	for i := 0; i < 5; i++ {
		if flags[i] {
			t.Fatalf("normal step %d flagged", i)
		}
	}
	if !flags[5] {
		t.Fatalf("outlier not flagged")
	}
}

func TestFlagAbsFilterSuppressesSmallDeviations(t *testing.T) {
	// Tiny σ makes even small deviations exceed γσ, but the 5-point
	// absolute filter must suppress them. A NaN error is flagged either way.
	actual := []float64{0, 0, 0, 0}
	pred := []float64{1, 2, 8, math.NaN()}
	em := ErrorModel{}
	em.Dist.Mu, em.Dist.Sigma = 0, 0.1
	noFilter := Flag(pred, actual, em, Config{Gamma: 2})
	if !noFilter[0] || !noFilter[1] || !noFilter[2] || !noFilter[3] {
		t.Fatalf("all should exceed γσ without filter: %v", noFilter)
	}
	filtered := Flag(pred, actual, em, Config{Gamma: 2, AbsFilter: 5})
	if filtered[0] || filtered[1] {
		t.Fatalf("small deviations should be filtered: %v", filtered)
	}
	if !filtered[2] || !filtered[3] {
		t.Fatalf("large and NaN deviations should survive the filter: %v", filtered)
	}
}

func TestFlagHigherGammaIsStricter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 500
	pred := make([]float64, n)
	actual := make([]float64, n)
	for i := range pred {
		actual[i] = 0
		pred[i] = rng.NormFloat64()
	}
	em := FitErrorModel(pred[:300], actual[:300])
	count := func(g float64) int {
		c := 0
		for _, f := range Flag(pred, actual, em, Config{Gamma: g}) {
			if f {
				c++
			}
		}
		return c
	}
	c1, c2, c3 := count(1), count(2), count(3)
	if !(c1 > c2 && c2 > c3) {
		t.Fatalf("flag counts must fall with gamma: %d %d %d", c1, c2, c3)
	}
}

func TestFlagPanics(t *testing.T) {
	em := FitErrorModel([]float64{1, 2}, []float64{1, 2})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("length mismatch should panic")
			}
		}()
		Flag([]float64{1}, []float64{1, 2}, em, Config{Gamma: 1})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("gamma<=0 should panic")
			}
		}()
		Flag([]float64{1}, []float64{1}, em, Config{Gamma: 0})
	}()
}

func TestDetectSelfCalibrates(t *testing.T) {
	// A nil error model is the execution's own distribution: a clear
	// outlier is an alarm, the rest are not.
	actual := make([]float64, 50)
	pred := make([]float64, 50)
	rng := rand.New(rand.NewSource(2))
	for i := range pred {
		pred[i] = rng.NormFloat64() * 0.5
	}
	pred[25] = 30
	s := testSeries(50)
	alarms := Detect("self", s, pred, actual, 0, nil, Config{Gamma: 3})
	if len(alarms) != 1 || alarms[0].StartIdx != 25 || alarms[0].EndIdx != 25 || alarms[0].PeakDev != 30 {
		t.Fatalf("want the outlier alone as one alarm, got %v", alarms)
	}
}

// TestDetectMatchesItsParts holds Detect to Flag then MergeAlarms, with the
// given error model or, for a nil one, FitErrorModel of the same inputs.
func TestDetectMatchesItsParts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(60)
		offset := 0
		if trial%2 == 1 {
			offset = 1 + rng.Intn(5)
		}
		s := testSeries(offset + n)
		for i := range s.RU {
			s.RU[i] = 50 + 10*rng.NormFloat64()
		}
		pred := make([]float64, n)
		actual := s.RU[offset:]
		for i := range pred {
			pred[i] = actual[i] + 4*rng.NormFloat64()
			if rng.Float64() < 0.1 {
				pred[i] += 20 * rng.NormFloat64()
			}
		}
		hist := FitErrorModel(pred[:n/2+1], actual[:n/2+1])
		for _, cfg := range []Config{{Gamma: 1}, {Gamma: 2, AbsFilter: 5}, {Gamma: 3, AbsFilter: 5}} {
			want := MergeAlarms("d", s, Flag(pred, actual, hist, cfg), pred, offset, MergeGap)
			if got := Detect("d", s, pred, actual, offset, &hist, cfg); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %+v: Detect with a model = %v, want %v", trial, cfg, got, want)
			}
			self := FitErrorModel(pred, actual)
			want = MergeAlarms("d", s, Flag(pred, actual, self, cfg), pred, offset, MergeGap)
			if got := Detect("d", s, pred, actual, offset, nil, cfg); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %+v: Detect self-calibrated = %v, want %v", trial, cfg, got, want)
			}
		}
	}
}

func testSeries(n int) *dataset.Series {
	s := &dataset.Series{
		Env:     envmeta.Environment{Testbed: "tb1", SUT: "db", Testcase: "load", Build: "S05"},
		ChainID: "tb1|db|load",
		CF:      tensor.New(n, 1),
		RU:      make([]float64, n),
		Times:   make([]int64, n),
	}
	for i := range s.Times {
		s.Times[i] = int64(1000 + i*900)
	}
	return s
}

func TestMergeAlarmsBasic(t *testing.T) {
	s := testSeries(10)
	pred := make([]float64, 10)
	pred[2], pred[3], pred[7] = 5, 8, 4
	flags := []bool{false, false, true, true, false, false, false, true, false, false}
	alarms := MergeAlarms("env2vec", s, flags, pred, 0, 0)
	if len(alarms) != 2 {
		t.Fatalf("want 2 alarms, got %d: %v", len(alarms), alarms)
	}
	// Flags from a windowed model start at its first scored timestep.
	if got := MergeAlarms("env2vec", s, flags[2:], pred[2:], 2, 0); !reflect.DeepEqual(got, alarms) {
		t.Fatalf("offset 2 merges %v, want %v", got, alarms)
	}
	a := alarms[0]
	if a.StartIdx != 2 || a.EndIdx != 3 || a.PeakDev != 8 {
		t.Fatalf("first alarm wrong: %+v", a)
	}
	if a.StartTime != 1000+2*900 || a.EndTime != 1000+3*900 {
		t.Fatalf("alarm times wrong: %+v", a)
	}
	if a.Duration() != 2 || alarms[1].Duration() != 1 {
		t.Fatalf("durations wrong")
	}
	if !strings.Contains(a.String(), "tb1") {
		t.Fatalf("String missing testbed: %q", a.String())
	}
}

func TestMergeAlarmsGapTolerance(t *testing.T) {
	s := testSeries(8)
	pred := make([]float64, 8)
	flags := []bool{true, false, true, false, false, false, true, false}
	if got := len(MergeAlarms("d", s, flags, pred, 0, 1)); got != 2 {
		t.Fatalf("gap=1 should merge first two runs: got %d alarms", got)
	}
	if got := len(MergeAlarms("d", s, flags, pred, 0, 0)); got != 3 {
		t.Fatalf("gap=0 should keep 3 alarms: got %d", got)
	}
	if got := len(MergeAlarms("d", s, flags, pred, 0, 10)); got != 1 {
		t.Fatalf("large gap should merge all: got %d", got)
	}
}

func TestMergeAlarmsPanicsOnMismatch(t *testing.T) {
	s := testSeries(4)
	for _, c := range []struct {
		flags  []bool
		pred   []float64
		offset int
	}{
		{[]bool{true}, []float64{1, 2, 3, 4}, 0},
		{[]bool{true, false}, []float64{1, 2}, 1},
		{[]bool{true, false}, []float64{1, 2}, 3},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%d flags, %d predictions at offset %d: expected panic", len(c.flags), len(c.pred), c.offset)
				}
			}()
			MergeAlarms("d", s, c.flags, c.pred, c.offset, 0)
		}()
	}
}

func TestEvaluateOverlap(t *testing.T) {
	s := testSeries(10)
	s.Anomalous = make([]bool, 10)
	s.Anomalous[4] = true
	s.Anomalous[5] = true
	alarms := []Alarm{
		{StartIdx: 3, EndIdx: 4}, // overlaps → correct
		{StartIdx: 7, EndIdx: 8}, // no overlap → false
	}
	st := Evaluate(alarms, s)
	if st.Alarms != 2 || st.Correct != 1 {
		t.Fatalf("evaluate wrong: %+v", st)
	}
	unl := testSeries(10)
	if got := Evaluate(alarms, unl); got.Correct != 0 || got.Alarms != 2 {
		t.Fatalf("unlabeled series should yield zero correct")
	}
}

func TestTrueAndDetectedEpisodes(t *testing.T) {
	s := testSeries(12)
	s.Anomalous = []bool{false, true, true, false, false, true, false, true, true, true, false, false}
	if got := TrueEpisodes(s); got != 3 {
		t.Fatalf("TrueEpisodes = %d", got)
	}
	alarms := []Alarm{{StartIdx: 2, EndIdx: 2}, {StartIdx: 10, EndIdx: 11}}
	if got := DetectedEpisodes(alarms, s); got != 1 {
		t.Fatalf("DetectedEpisodes = %d", got)
	}
	alarms = append(alarms, Alarm{StartIdx: 5, EndIdx: 9})
	if got := DetectedEpisodes(alarms, s); got != 3 {
		t.Fatalf("DetectedEpisodes after adding = %d", got)
	}
	if TrueEpisodes(testSeries(5)) != 0 {
		t.Fatalf("unlabeled series has no episodes")
	}
}

// Property: alarms never overlap, are ordered, and cover exactly the
// flagged steps when maxGap=0.
func TestMergeAlarmsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		s := testSeries(n)
		flags := make([]bool, n)
		flagged := 0
		for i := range flags {
			flags[i] = rng.Float64() < 0.3
			if flags[i] {
				flagged++
			}
		}
		pred := make([]float64, n)
		alarms := MergeAlarms("p", s, flags, pred, 0, 0)
		covered := 0
		lastEnd := -1
		for _, a := range alarms {
			if a.StartIdx <= lastEnd || a.EndIdx < a.StartIdx {
				return false
			}
			for i := a.StartIdx; i <= a.EndIdx; i++ {
				if !flags[i] {
					return false
				}
				covered++
			}
			lastEnd = a.EndIdx
		}
		return covered == flagged
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
