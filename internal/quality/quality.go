// Package quality is the online model-quality monitor of workflow step (4):
// while internal/serve answers prediction traffic, this package watches the
// predictor itself. Every request that comes back with ground truth (an
// inline actual or a follow-up /observe) feeds a per-environment rolling
// error model — a lifetime Welford Gaussian plus a windowed ring, mirroring
// the paper's per-chain N(μ_err, σ_err) — which is compared against the
// training-time error baseline embedded in the serving bundle. Sustained
// γ·σ exceedance, a window mean-shift, or deviations past the paper's
// absolute-CPU gate count as drift; drift becomes an anomaly.Alarm with
// environment and time-interval attribution, pushed asynchronously into the
// alarm store through a bounded, retrying queue.
package quality

import (
	"math"
	"sort"
	"strings"
	"sync"

	"env2vec/internal/anomaly"
	"env2vec/internal/envmeta"
	"env2vec/internal/obs"
)

// Baseline is the training-time prediction-error distribution the monitor
// compares live errors against — the serving-time stand-in for the paper's
// "errors on previous builds" Gaussian. It travels inside the serving
// bundle (see serve.AttachArtifacts).
type Baseline struct {
	Mu      float64 `json:"mu"`
	Sigma   float64 `json:"sigma"`
	Samples int     `json:"samples"`
}

// DefErrorBuckets are absolute-error upper bounds in CPU points, spanning
// noise-level misses to catastrophic ones.
var DefErrorBuckets = []float64{0.5, 1, 2.5, 5, 10, 25, 50, 100}

// Config tunes the monitor. The zero value is usable: every field defaults
// sensibly in NewMonitor.
type Config struct {
	// Gamma is the γ multiplier on σ_error for both per-sample exceedance
	// and window mean-shift (default 3).
	Gamma float64
	// AbsFilter additionally requires deviations to exceed this many
	// absolute units — the paper's 5-CPU-point false-alarm gate
	// (default 5; negative disables).
	AbsFilter float64
	// Window is the per-environment ring of recent errors drift is judged
	// over (default 64).
	Window int
	// MinSamples is how full the window must be before drift verdicts fire
	// (default 16).
	MinSamples int
	// ExceedRate is the fraction of windowed samples beyond γ·σ that
	// constitutes drift (default 0.5).
	ExceedRate float64
	// Cooldown is the minimum number of observations between successive
	// alarms for one environment, so sustained drift raises one alarm per
	// window rather than one per request (default Window).
	Cooldown int
	// MaxEnvGauges caps how many environments get per-env /metrics gauges;
	// environments beyond the cap are still monitored and alarmed, just not
	// exported as individual series (default 128).
	MaxEnvGauges int
}

func (c Config) withDefaults() Config {
	if c.Gamma <= 0 {
		c.Gamma = 3
	}
	if c.AbsFilter == 0 {
		c.AbsFilter = 5
	}
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 16
	}
	if c.MinSamples > c.Window {
		c.MinSamples = c.Window
	}
	if c.ExceedRate <= 0 {
		c.ExceedRate = 0.5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = c.Window
	}
	if c.MaxEnvGauges <= 0 {
		c.MaxEnvGauges = 128
	}
	return c
}

// sample is one ground-truth observation in an environment's window.
type sample struct {
	err    float64 // pred − actual
	at     int64   // unix seconds
	seq    int     // per-environment observation index
	exceed bool
}

// envState is the rolling error model of one environment tuple.
type envState struct {
	env envmeta.Environment

	// Lifetime Welford over non-exceeding errors: the self-calibrated
	// fallback baseline for bundles that carry none (the §4.3 unseen-
	// environment case). Exceeding errors are excluded so a sustained
	// problem cannot drag the baseline toward itself.
	n        int
	mean, m2 float64

	ring         []sample // capacity Config.Window, chronological via next
	next, filled int

	seq          int // observations ever seen for this env
	lastAlarmSeq int
	alarmCount   int
	lastAlarm    *anomaly.Alarm
	lastAt       int64
}

func (st *envState) welfordSigma() float64 {
	if st.n < 2 {
		return 0
	}
	return math.Sqrt(st.m2 / float64(st.n-1))
}

func (st *envState) push(s sample) {
	if st.filled < len(st.ring) {
		st.ring[st.next] = s
		st.filled++
	} else {
		st.ring[st.next] = s
	}
	st.next = (st.next + 1) % len(st.ring)
}

// chronological returns the window oldest-first.
func (st *envState) chronological() []sample {
	out := make([]sample, 0, st.filled)
	start := st.next - st.filled
	for i := 0; i < st.filled; i++ {
		out = append(out, st.ring[((start+i)%len(st.ring)+len(st.ring))%len(st.ring)])
	}
	return out
}

// windowStats returns the windowed error mean, unbiased sigma, and the
// fraction of windowed samples flagged as exceedances.
func (st *envState) windowStats() (mean, sigma, exceedRate float64) {
	if st.filled == 0 {
		return 0, 0, 0
	}
	var sum float64
	exceed := 0
	for i := 0; i < st.filled; i++ {
		sum += st.ring[i].err
		if st.ring[i].exceed {
			exceed++
		}
	}
	mean = sum / float64(st.filled)
	if st.filled > 1 {
		var m2 float64
		for i := 0; i < st.filled; i++ {
			d := st.ring[i].err - mean
			m2 += d * d
		}
		sigma = math.Sqrt(m2 / float64(st.filled-1))
	}
	return mean, sigma, float64(exceed) / float64(st.filled)
}

// Verdict is the monitor's judgement of one observation — returned to the
// caller and surfaced as the `quality` block of a /predict response.
type Verdict struct {
	Env           string  `json:"env"`
	Error         float64 `json:"error"` // pred − actual
	Exceeded      bool    `json:"exceeded"`
	Drift         bool    `json:"drift,omitempty"`
	DriftReason   string  `json:"drift_reason,omitempty"`
	Calibrating   bool    `json:"calibrating,omitempty"` // no baseline yet; no exceedance verdicts
	WindowMean    float64 `json:"window_mean"`
	WindowSigma   float64 `json:"window_sigma"`
	ExceedRate    float64 `json:"exceed_rate"`
	BaselineMu    float64 `json:"baseline_mu"`
	BaselineSigma float64 `json:"baseline_sigma"`
}

// Monitor maintains per-environment rolling error statistics, detects
// drift, and emits alarms. Safe for concurrent use.
type Monitor struct {
	cfg  Config
	sink *Async // optional async alarm pusher

	mu       sync.Mutex
	baseline *Baseline
	envs     map[string]*envState
	gauged   int

	reg                               *obs.Registry
	observations, exceedances, alarms *obs.Counter
	absErr                            *obs.Histogram
}

// NewMonitor builds a monitor instrumented into reg (nil gets a private
// registry, so counters still work) that pushes alarms through sink (nil
// sink = monitor-only: metrics, verdicts, and /quality snapshots, but no
// alarm delivery).
func NewMonitor(cfg Config, reg *obs.Registry, sink *Async) *Monitor {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &Monitor{
		cfg:  cfg.withDefaults(),
		sink: sink,
		envs: make(map[string]*envState),
		reg:  reg,
	}
	m.observations = reg.Counter("env2vec_quality_observations_total", "Ground-truth observations fed to the quality monitor.", nil)
	m.exceedances = reg.Counter("env2vec_quality_exceedances_total", "Observations whose error exceeded γ·σ of the baseline (plus the absolute gate).", nil)
	m.alarms = reg.Counter("env2vec_quality_alarms_total", "Drift alarms emitted by the quality monitor.", nil)
	m.absErr = reg.Histogram("env2vec_quality_abs_error", "Absolute prediction error of observed requests, in CPU points.", DefErrorBuckets, nil)
	return m
}

// SetBaseline swaps the training-time baseline, typically on a hot model
// reload. A nil baseline switches every environment to self-calibration.
func (m *Monitor) SetBaseline(b *Baseline) {
	m.mu.Lock()
	m.baseline = b
	m.mu.Unlock()
}

// baselineForLocked resolves the comparison distribution for one
// environment: the bundle's training-time baseline when present, otherwise
// the environment's own lifetime Welford once it has enough samples.
func (m *Monitor) baselineForLocked(st *envState) (Baseline, bool) {
	if m.baseline != nil && m.baseline.Samples > 0 {
		return *m.baseline, true
	}
	if st.n >= m.cfg.MinSamples {
		return Baseline{Mu: st.mean, Sigma: st.welfordSigma(), Samples: st.n}, true
	}
	return Baseline{}, false
}

// driftReasonLocked applies the drift criteria to an environment's window:
// sustained γ·σ exceedance rate first, then a shift of the window mean away
// from the baseline beyond γ standard errors (σ/√n — a mean of n samples is
// that much tighter than one sample, which lets the monitor catch shifts
// too small to trip the per-sample threshold). Both honour the absolute
// gate. Empty string means no drift.
func (m *Monitor) driftReasonLocked(st *envState, base Baseline) string {
	if st.filled < m.cfg.MinSamples {
		return ""
	}
	mean, _, rate := st.windowStats()
	if rate >= m.cfg.ExceedRate {
		return "exceed-rate"
	}
	stderr := base.Sigma / math.Sqrt(float64(st.filled))
	if shift := math.Abs(mean - base.Mu); shift > m.cfg.Gamma*stderr && (m.cfg.AbsFilter <= 0 || shift >= m.cfg.AbsFilter) {
		return "mean-shift"
	}
	return ""
}

// Observe feeds one ground-truth observation and returns the monitor's
// verdict. at is the observation time in unix seconds (alarm attribution);
// requestID links the error into the exemplar histogram.
func (m *Monitor) Observe(env envmeta.Environment, requestID string, pred, actual float64, at int64) Verdict {
	e := pred - actual
	key := env.String()

	m.mu.Lock()
	st := m.envs[key]
	newEnv := st == nil
	if newEnv {
		// The state outlives the request, whose strings may sub-slice a
		// decoded wire frame: keep clones.
		st = &envState{ring: make([]sample, m.cfg.Window), env: envmeta.Environment{
			Testbed: strings.Clone(env.Testbed), SUT: strings.Clone(env.SUT),
			Testcase: strings.Clone(env.Testcase), Build: strings.Clone(env.Build),
		}}
		m.envs[key] = st
	}
	wantGauges := newEnv && m.gauged < m.cfg.MaxEnvGauges
	if wantGauges {
		m.gauged++
	}
	st.seq++
	st.lastAt = at

	base, haveBase := m.baselineForLocked(st)
	exceed := false
	if haveBase {
		dev := math.Abs(e - base.Mu)
		exceed = dev > m.cfg.Gamma*base.Sigma && (m.cfg.AbsFilter <= 0 || math.Abs(e) >= m.cfg.AbsFilter)
	}
	if !exceed {
		st.n++
		d := e - st.mean
		st.mean += d / float64(st.n)
		st.m2 += d * (e - st.mean)
	}
	st.push(sample{err: e, at: at, seq: st.seq, exceed: exceed})

	v := Verdict{Env: key, Error: e, Exceeded: exceed, Calibrating: !haveBase}
	v.WindowMean, v.WindowSigma, v.ExceedRate = st.windowStats()
	if haveBase {
		v.BaselineMu, v.BaselineSigma = base.Mu, base.Sigma
	}

	var alarm *anomaly.Alarm
	if haveBase {
		if reason := m.driftReasonLocked(st, base); reason != "" {
			v.Drift, v.DriftReason = true, reason
			if st.seq-st.lastAlarmSeq >= m.cfg.Cooldown {
				a := st.buildAlarmLocked(reason)
				st.lastAlarmSeq = st.seq
				st.alarmCount++
				st.lastAlarm = &a
				alarm = &a
			}
		}
	}
	m.mu.Unlock()

	// Metric writes happen outside m.mu: the per-env gauge callbacks take
	// m.mu at scrape time, so touching the registry under it would invert
	// lock order against a concurrent scrape.
	if wantGauges {
		m.registerEnvGauges(key)
	}
	m.observations.Inc()
	if exceed {
		m.exceedances.Inc()
	}
	m.absErr.ObserveExemplar(math.Abs(e), requestID)
	if alarm != nil {
		m.alarms.Inc()
		if m.sink != nil {
			m.sink.Push(*alarm, at)
		}
	}
	return v
}

// buildAlarmLocked converts the current window into one alarm interval:
// indices and times span the exceeding samples (or the whole window for a
// mean-shift without individual exceeders), peak is the worst |error|.
func (st *envState) buildAlarmLocked(reason string) anomaly.Alarm {
	a := anomaly.Alarm{
		Source:   "drift",
		Detector: "quality:" + reason,
		ChainID:  st.env.String(),
		Testbed:  st.env.Testbed, SUT: st.env.SUT,
		Testcase: st.env.Testcase, Build: st.env.Build,
	}
	window := st.chronological()
	var first, last *sample
	for i := range window {
		s := &window[i]
		if dev := math.Abs(s.err); dev > a.PeakDev {
			a.PeakDev = dev
		}
		if s.exceed {
			if first == nil {
				first = s
			}
			last = s
		}
	}
	if first == nil { // mean-shift drift: attribute the whole window
		first, last = &window[0], &window[len(window)-1]
	}
	a.StartIdx, a.EndIdx = first.seq, last.seq
	a.StartTime, a.EndTime = first.at, last.at
	return a
}

// registerEnvGauges exports one environment's rolling statistics as labelled
// gauges. Called without m.mu held (the callbacks take it at scrape time).
func (m *Monitor) registerEnvGauges(key string) {
	read := func(f func(*envState) float64) func() float64 {
		return func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			st := m.envs[key]
			if st == nil {
				return 0
			}
			return f(st)
		}
	}
	lbls := obs.Labels{"env": key}
	m.reg.GaugeFunc("env2vec_quality_error_mean", "Windowed prediction-error mean per environment.", lbls,
		read(func(st *envState) float64 { mean, _, _ := st.windowStats(); return mean }))
	m.reg.GaugeFunc("env2vec_quality_error_sigma", "Windowed prediction-error sigma per environment.", lbls,
		read(func(st *envState) float64 { _, sigma, _ := st.windowStats(); return sigma }))
	m.reg.GaugeFunc("env2vec_quality_exceed_rate", "Fraction of the window beyond γ·σ per environment.", lbls,
		read(func(st *envState) float64 { _, _, rate := st.windowStats(); return rate }))
}

// EnvSnapshot is one environment's entry in the /quality report.
type EnvSnapshot struct {
	Env         string              `json:"env"`
	Environment envmeta.Environment `json:"environment"`
	Samples     int                 `json:"samples"` // ground-truth observations ever seen
	Calibrating bool                `json:"calibrating,omitempty"`
	WindowMean  float64             `json:"window_mean"`
	WindowSigma float64             `json:"window_sigma"`
	ExceedRate  float64             `json:"exceed_rate"`
	Drift       bool                `json:"drift"`
	DriftReason string              `json:"drift_reason,omitempty"`
	Alarms      int                 `json:"alarms"`
	LastAlarm   *anomaly.Alarm      `json:"last_alarm,omitempty"`
	LastSeen    int64               `json:"last_seen"` // unix seconds
}

// Snapshot is the full /quality payload.
type Snapshot struct {
	Gamma         float64       `json:"gamma"`
	AbsFilter     float64       `json:"abs_filter"`
	Window        int           `json:"window"`
	ExceedRate    float64       `json:"exceed_rate_threshold"`
	Baseline      *Baseline     `json:"baseline,omitempty"`
	Environments  []EnvSnapshot `json:"environments"`
	Observations  uint64        `json:"observations"`
	Exceedances   uint64        `json:"exceedances"`
	AlarmsEmitted uint64        `json:"alarms_emitted"`
	AlarmsPushed  uint64        `json:"alarms_pushed"`
	AlarmsDropped uint64        `json:"alarms_dropped"`
	PushErrors    uint64        `json:"push_errors"`
}

// Snapshot reports every monitored environment plus pipeline counters,
// environments sorted by tuple for stable output.
func (m *Monitor) Snapshot() Snapshot {
	m.mu.Lock()
	out := Snapshot{
		Gamma:      m.cfg.Gamma,
		AbsFilter:  m.cfg.AbsFilter,
		Window:     m.cfg.Window,
		ExceedRate: m.cfg.ExceedRate,
		Baseline:   m.baseline,
	}
	for key, st := range m.envs {
		es := EnvSnapshot{
			Env: key, Environment: st.env,
			Samples:   st.seq,
			Alarms:    st.alarmCount,
			LastAlarm: st.lastAlarm,
			LastSeen:  st.lastAt,
		}
		es.WindowMean, es.WindowSigma, es.ExceedRate = st.windowStats()
		base, haveBase := m.baselineForLocked(st)
		es.Calibrating = !haveBase
		if haveBase {
			if reason := m.driftReasonLocked(st, base); reason != "" {
				es.Drift, es.DriftReason = true, reason
			}
		}
		out.Environments = append(out.Environments, es)
	}
	m.mu.Unlock()
	sort.Slice(out.Environments, func(i, j int) bool { return out.Environments[i].Env < out.Environments[j].Env })
	out.Observations = m.observations.Value()
	out.Exceedances = m.exceedances.Value()
	out.AlarmsEmitted = m.alarms.Value()
	if m.sink != nil {
		out.AlarmsPushed = m.sink.Pushed()
		out.AlarmsDropped = m.sink.Dropped()
		out.PushErrors = m.sink.Errors()
	}
	return out
}

// AlarmsEmitted returns how many drift alarms the monitor has raised.
func (m *Monitor) AlarmsEmitted() uint64 { return m.alarms.Value() }
