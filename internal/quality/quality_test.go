package quality

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"env2vec/internal/anomaly"
	"env2vec/internal/envmeta"
	"env2vec/internal/obs"
	"env2vec/internal/stats"
)

var testEnv = envmeta.Environment{Testbed: "tb1", SUT: "fw", Testcase: "load", Build: "B7"}

// recordingSink captures pushed alarms synchronously.
type recordingSink struct {
	alarms []anomaly.Alarm
	times  []int64
}

func (r *recordingSink) Push(a anomaly.Alarm, at int64) error {
	r.alarms = append(r.alarms, a)
	r.times = append(r.times, at)
	return nil
}

// TestWelfordMatchesBatchFit checks the monitor's online math against the
// batch estimators the offline path (internal/anomaly, internal/stats) uses
// on the same series: the windowed mean/σ must equal FitGaussian, and the
// self-calibrated baseline must equal FitErrorModel over the same errors.
func TestWelfordMatchesBatchFit(t *testing.T) {
	const n = 48
	rng := rand.New(rand.NewSource(7))
	pred := make([]float64, n)
	actual := make([]float64, n)
	errs := make([]float64, n)
	for i := range pred {
		pred[i] = 50 + rng.NormFloat64()*10
		actual[i] = pred[i] - rng.NormFloat64() // small errors: nothing exceeds
		errs[i] = pred[i] - actual[i]
	}

	// No bundle baseline → the monitor self-calibrates from its own errors.
	m := NewMonitor(Config{Gamma: 3, AbsFilter: 5, Window: n, MinSamples: 8}, nil, nil)
	var last Verdict
	for i := range pred {
		last = m.Observe(testEnv, "", pred[i], actual[i], int64(1000+i))
	}

	batch := stats.FitGaussian(errs)
	if math.Abs(last.WindowMean-batch.Mu) > 1e-12 {
		t.Fatalf("window mean %v, batch FitGaussian mu %v", last.WindowMean, batch.Mu)
	}
	if math.Abs(last.WindowSigma-batch.Sigma) > 1e-12 {
		t.Fatalf("window sigma %v, batch FitGaussian sigma %v", last.WindowSigma, batch.Sigma)
	}

	// The self-calibrated baseline reported for the LAST observation was
	// fitted on everything before it — exactly FitErrorModel on the prefix.
	em := anomaly.FitErrorModel(pred[:n-1], actual[:n-1])
	if math.Abs(last.BaselineMu-em.Dist.Mu) > 1e-12 || math.Abs(last.BaselineSigma-em.Dist.Sigma) > 1e-12 {
		t.Fatalf("self baseline N(%v,%v), FitErrorModel N(%v,%v)",
			last.BaselineMu, last.BaselineSigma, em.Dist.Mu, em.Dist.Sigma)
	}
}

// TestExceedMatchesAnomalyFlag replays one series through the monitor with a
// fixed baseline and checks each per-sample exceedance verdict against
// anomaly.Flag with the identical error model and config.
func TestExceedMatchesAnomalyFlag(t *testing.T) {
	base := &Baseline{Mu: 0.5, Sigma: 2, Samples: 100}
	det := anomaly.Config{Gamma: 2.5, AbsFilter: 5}
	rng := rand.New(rand.NewSource(11))
	const n = 200
	pred := make([]float64, n)
	actual := make([]float64, n)
	for i := range pred {
		pred[i] = 50
		// Mix benign errors with occasional large ones.
		e := rng.NormFloat64() * 2
		if rng.Intn(10) == 0 {
			e += 25
		}
		actual[i] = pred[i] - e
	}
	em := anomaly.ErrorModel{Dist: stats.Gaussian{Mu: base.Mu, Sigma: base.Sigma}, Samples: base.Samples}
	want := anomaly.Flag(pred, actual, em, det)

	m := NewMonitor(Config{Gamma: det.Gamma, AbsFilter: det.AbsFilter, Window: 32, MinSamples: 8}, nil, nil)
	m.SetBaseline(base)
	for i := range pred {
		v := m.Observe(testEnv, "", pred[i], actual[i], int64(i))
		if v.Exceeded != want[i] {
			t.Fatalf("sample %d: monitor exceed=%v, anomaly.Flag=%v (err %v)", i, v.Exceeded, want[i], v.Error)
		}
	}
}

// TestDriftExceedRateRaisesAttributedAlarm injects a sustained error shift
// and verifies the paper loop: exceedance rate climbs, drift is declared,
// and exactly one alarm per cooldown window arrives at the sink with full
// environment and time-interval attribution.
func TestDriftExceedRateRaisesAttributedAlarm(t *testing.T) {
	sinkRec := &recordingSink{}
	async := NewAsync(sinkRec, AsyncConfig{QueueDepth: 16}, nil)
	m := NewMonitor(Config{Gamma: 3, AbsFilter: 5, Window: 8, MinSamples: 4, ExceedRate: 0.5, Cooldown: 8}, nil, async)
	m.SetBaseline(&Baseline{Mu: 0, Sigma: 1, Samples: 500})

	// Healthy phase: accurate predictions, no drift.
	for i := 0; i < 8; i++ {
		v := m.Observe(testEnv, "", 50, 50, int64(100+i))
		if v.Drift || v.Exceeded {
			t.Fatalf("healthy sample %d flagged: %+v", i, v)
		}
	}
	// Failure phase: predictions start missing by ±20 points. The sign
	// alternates so the window mean stays near zero — only the exceedance
	// rate can catch this (a variance blow-up, not a mean shift).
	var sawDrift bool
	for i := 0; i < 8; i++ {
		actual := 70.0
		if i%2 == 1 {
			actual = 30
		}
		v := m.Observe(testEnv, "", 50, actual, int64(200+i))
		if v.Drift {
			sawDrift = true
		}
	}
	if !sawDrift {
		t.Fatal("sustained ±20-point misses never declared drift")
	}
	async.Close()
	if len(sinkRec.alarms) != 1 {
		t.Fatalf("alarms delivered %d, want exactly 1 (cooldown)", len(sinkRec.alarms))
	}
	a := sinkRec.alarms[0]
	if a.Detector != "quality:exceed-rate" {
		t.Fatalf("detector %q", a.Detector)
	}
	if a.Testbed != "tb1" || a.SUT != "fw" || a.Testcase != "load" || a.Build != "B7" || a.ChainID != testEnv.String() {
		t.Fatalf("environment attribution wrong: %+v", a)
	}
	if a.StartTime < 200 || a.EndTime < a.StartTime {
		t.Fatalf("time interval wrong: %d..%d (shift started at 200)", a.StartTime, a.EndTime)
	}
	if math.Abs(a.PeakDev-20) > 1e-9 {
		t.Fatalf("peak deviation %v, want 20", a.PeakDev)
	}
	if got := m.Snapshot().AlarmsEmitted; got != 1 {
		t.Fatalf("alarms emitted %d, want 1", got)
	}

	snap := m.Snapshot()
	if len(snap.Environments) != 1 || !snap.Environments[0].Drift {
		t.Fatalf("snapshot should report the drifting environment: %+v", snap.Environments)
	}
	if snap.Environments[0].LastAlarm == nil {
		t.Fatal("snapshot lost the last alarm")
	}
}

// TestMeanShiftDetectsSubThresholdDrift: a consistent error too small to
// trip the per-sample γ·σ threshold must still raise drift once the window
// mean moves beyond γ standard errors.
func TestMeanShiftDetectsSubThresholdDrift(t *testing.T) {
	sinkRec := &recordingSink{}
	async := NewAsync(sinkRec, AsyncConfig{QueueDepth: 16}, nil)
	m := NewMonitor(Config{Gamma: 3, AbsFilter: 5, Window: 16, MinSamples: 16, ExceedRate: 0.5, Cooldown: 16}, nil, async)
	m.SetBaseline(&Baseline{Mu: 0, Sigma: 10, Samples: 500})

	// Per-sample threshold is 30; a constant error of 8 never exceeds, but
	// the window mean of 8 is far beyond 3·(10/√16)=7.5 and the 5-point gate.
	var v Verdict
	for i := 0; i < 16; i++ {
		v = m.Observe(testEnv, "", 50, 42, int64(i))
		if v.Exceeded {
			t.Fatalf("sample %d should not exceed per-sample threshold", i)
		}
	}
	if !v.Drift || v.DriftReason != "mean-shift" {
		t.Fatalf("sub-threshold sustained shift missed: %+v", v)
	}
	async.Close()
	if len(sinkRec.alarms) != 1 || sinkRec.alarms[0].Detector != "quality:mean-shift" {
		t.Fatalf("mean-shift alarm wrong: %+v", sinkRec.alarms)
	}
}

// TestAbsoluteGateSuppressesSmallErrors mirrors the paper's 5-point filter:
// with a near-zero baseline σ, tiny errors exceed γ·σ but must stay quiet.
func TestAbsoluteGateSuppressesSmallErrors(t *testing.T) {
	m := NewMonitor(Config{Gamma: 3, AbsFilter: 5, Window: 8, MinSamples: 4}, nil, nil)
	m.SetBaseline(&Baseline{Mu: 0, Sigma: 0.01, Samples: 100})
	for i := 0; i < 8; i++ {
		v := m.Observe(testEnv, "", 50, 49, int64(i)) // 1-point error: 100·σ but < 5 points
		if v.Exceeded || v.Drift {
			t.Fatalf("1-point error past the absolute gate: %+v", v)
		}
	}
	// A 10-point error passes the gate.
	if v := m.Observe(testEnv, "", 50, 40, 99); !v.Exceeded {
		t.Fatalf("10-point error should exceed: %+v", v)
	}
}

// TestWindowEvictsOldErrors: drift clears once the window rolls past the
// bad stretch.
func TestWindowEvictsOldErrors(t *testing.T) {
	m := NewMonitor(Config{Gamma: 3, AbsFilter: 5, Window: 8, MinSamples: 4, ExceedRate: 0.5, Cooldown: 1000}, nil, nil)
	m.SetBaseline(&Baseline{Mu: 0, Sigma: 1, Samples: 100})
	for i := 0; i < 8; i++ {
		m.Observe(testEnv, "", 50, 70, int64(i))
	}
	if v := m.Observe(testEnv, "", 50, 50, 8); !v.Drift {
		t.Fatalf("drift should persist while window is saturated: %+v", v)
	}
	// Recovery: accurate predictions push the bad samples out.
	var v Verdict
	for i := 0; i < 8; i++ {
		v = m.Observe(testEnv, "", 50, 50, int64(20+i))
	}
	if v.Drift || v.ExceedRate != 0 {
		t.Fatalf("window never recovered: %+v", v)
	}
}

// TestPerEnvMetricsAndExemplars: per-env gauges appear on the registry and
// the error histogram carries the offending request id as an exemplar.
func TestPerEnvMetricsAndExemplars(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMonitor(Config{Window: 8, MinSamples: 4}, reg, nil)
	m.SetBaseline(&Baseline{Mu: 0, Sigma: 1, Samples: 100})
	m.Observe(testEnv, "req-huge-error", 50, 10, 1) // 40-point error
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	page := b.String()
	for _, want := range []string{
		"env2vec_quality_observations_total 1",
		"env2vec_quality_exceedances_total 1",
		`env2vec_quality_error_mean{env="<tb1,fw,load,B7>"}`,
		`env2vec_quality_exceed_rate{env="<tb1,fw,load,B7>"} 1`,
		`# {request_id="req-huge-error"} 40`,
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("metrics page missing %q:\n%s", want, page)
		}
	}
}

// TestEnvGaugeCardinalityCap: environments beyond MaxEnvGauges are
// monitored but not exported as per-env series.
func TestEnvGaugeCardinalityCap(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMonitor(Config{Window: 8, MaxEnvGauges: 2}, reg, nil)
	for i := 0; i < 5; i++ {
		env := testEnv
		env.Build = string(rune('A' + i))
		m.Observe(env, "", 50, 50, 1)
	}
	var b strings.Builder
	_, _ = reg.WriteTo(&b)
	if got := strings.Count(b.String(), "env2vec_quality_error_mean{"); got != 2 {
		t.Fatalf("per-env gauge series %d, want capped at 2", got)
	}
	if len(m.Snapshot().Environments) != 5 {
		t.Fatal("capped environments must still be monitored")
	}
}
