// Package anomaly implements the contextual anomaly detection layer of
// Env2Vec (§3.2 "Anomaly detection" and §4.2.2) and scores alarms against
// ground-truth labels (true/false alarm rates A_T and A_F).
//
// Detect is the entry point of every detector that judges prediction errors
// against an error model N(μ_err, σ_err): one fitted by FitErrorModel on a
// chain's previous non-problematic builds or, for an unseen environment
// (§4.3), on the execution's own errors. A timestep is flagged when
// Config.Exceeds holds: |err − μ_err| > γ·σ_err and |err| at least the
// absolute filter (5 CPU points in §4.2.2). Flagged steps at most MergeGap
// unflagged steps apart merge into one alarm, and Evaluate counts an alarm
// correct when its interval overlaps a labelled anomalous timestep. A
// detector that flags by score (HTM-AD) calls MergeAlarms directly.
package anomaly

import (
	"fmt"
	"math"

	"env2vec/internal/dataset"
	"env2vec/internal/metrics"
	"env2vec/internal/stats"
)

// ErrorModel is the Gaussian fitted to the prediction errors of previous
// builds in a chain.
type ErrorModel struct {
	Dist    stats.Gaussian
	Samples int
}

// FitErrorModel builds the error distribution from predictions and
// observations on historical (non-problematic) builds.
func FitErrorModel(pred, actual []float64) ErrorModel {
	errs := metrics.Errors(pred, actual)
	return ErrorModel{Dist: stats.FitGaussian(errs), Samples: len(errs)}
}

// Config controls detection.
type Config struct {
	// Gamma is the γ multiplier on σ_error: larger values mean stricter
	// criteria, higher precision, lower recall.
	Gamma float64
	// AbsFilter additionally requires |y'−y| to exceed this many absolute
	// units (5.0 CPU points in §4.2.2); 0 disables the filter.
	AbsFilter float64
}

// Exceeds reports whether one timestep's error e = pred−actual is flagged:
// |e−μ_error| > γ·σ_error and, if enabled, |e| ≥ the absolute filter (NaN is).
func (c Config) Exceeds(e float64, dist stats.Gaussian) bool {
	return !(math.Abs(e-dist.Mu) <= c.Gamma*dist.Sigma) && !(c.AbsFilter > 0 && math.Abs(e) < c.AbsFilter)
}

// Flag returns per-timestep anomaly flags under cfg.Exceeds.
func Flag(pred, actual []float64, em ErrorModel, cfg Config) []bool {
	if len(pred) != len(actual) {
		panic(fmt.Sprintf("anomaly: length mismatch %d vs %d", len(pred), len(actual)))
	}
	if cfg.Gamma <= 0 {
		panic(fmt.Sprintf("anomaly: gamma must be positive, got %v", cfg.Gamma))
	}
	out := make([]bool, len(pred))
	for i := range pred {
		out[i] = cfg.Exceeds(pred[i]-actual[i], em.Dist)
	}
	return out
}

// Detect turns one execution's predictions into alarms: Flag under cfg,
// then MergeAlarms with MergeGap. pred and actual cover timesteps
// offset…s.Len()-1. A nil em is the unseen-environment case of §4.3, where
// no historical error distribution exists: the error model is fitted on
// exactly the pred and actual passed in.
func Detect(detector string, s *dataset.Series, pred, actual []float64, offset int, em *ErrorModel, cfg Config) []Alarm {
	if em == nil {
		self := FitErrorModel(pred, actual)
		em = &self
	}
	return MergeAlarms(detector, s, Flag(pred, actual, *em, cfg), pred, offset, MergeGap)
}

// Alarm is one reported problem interval, carrying everything a testing
// engineer needs to locate the issue (step 4 of the workflow): the full
// environment tuple plus the flagged time interval.
type Alarm struct {
	// Source classifies who raised the alarm: "drift" for the model-quality
	// monitor's per-environment error drift, "slo" for the monitoring
	// plane's burn-rate rules. Empty means "drift" (the original producer).
	Source    string `json:",omitempty"`
	Detector  string
	ChainID   string
	Testbed   string
	SUT       string `json:",omitempty"`
	Testcase  string `json:",omitempty"`
	Build     string
	StartIdx  int   // first flagged timestep (inclusive)
	EndIdx    int   // last flagged timestep (inclusive)
	StartTime int64 // unix seconds; 0 when the series carries no timestamps
	EndTime   int64
	PeakDev   float64 // largest |pred−actual| in the interval
}

// Duration returns the number of flagged timesteps covered by the alarm.
func (a Alarm) Duration() int { return a.EndIdx - a.StartIdx + 1 }

// String implements fmt.Stringer.
func (a Alarm) String() string {
	return fmt.Sprintf("[%s] chain=%s testbed=%s build=%s steps=%d..%d peak=%.2f",
		a.Detector, a.ChainID, a.Testbed, a.Build, a.StartIdx, a.EndIdx, a.PeakDev)
}

const MergeGap = 1 // the merge gap (timesteps) of every detector's alarms

// MergeAlarms converts the flags of timesteps offset…s.Len()-1 into alarms,
// merging runs of flagged steps (allowing gaps up to maxGap unflagged steps)
// into single intervals indexed by the series' timesteps.
func MergeAlarms(detector string, s *dataset.Series, flags []bool, pred []float64, offset, maxGap int) []Alarm {
	if len(flags) != len(pred) || offset < 0 || offset+len(flags) != s.Len() {
		panic(fmt.Sprintf("anomaly: merge length mismatch flags=%d pred=%d offset=%d series=%d", len(flags), len(pred), offset, s.Len()))
	}
	var alarms []Alarm
	inAlarm := false
	gap := 0
	var cur Alarm
	flush := func() {
		if inAlarm {
			alarms = append(alarms, cur)
			inAlarm = false
		}
	}
	for k, f := range flags {
		i := offset + k
		if !f {
			if inAlarm {
				gap++
				if gap > maxGap {
					flush()
				}
			}
			continue
		}
		dev := math.Abs(pred[k] - s.RU[i])
		if !inAlarm {
			cur = Alarm{
				Detector: detector, ChainID: s.ChainID,
				Testbed: s.Env.Testbed, SUT: s.Env.SUT,
				Testcase: s.Env.Testcase, Build: s.Env.Build,
				StartIdx: i, EndIdx: i, PeakDev: dev,
			}
			if len(s.Times) == s.Len() {
				cur.StartTime = s.Times[i]
			}
			inAlarm = true
		} else {
			cur.EndIdx = i
			if dev > cur.PeakDev {
				cur.PeakDev = dev
			}
		}
		if len(s.Times) == s.Len() {
			cur.EndTime = s.Times[i]
		}
		gap = 0
	}
	flush()
	return alarms
}

// Evaluate scores alarms against the series' ground-truth labels: an alarm
// is correct when its interval overlaps at least one labelled anomalous
// timestep (the paper's testing engineers confirmed alarms the same way —
// by inspecting the flagged interval).
func Evaluate(alarms []Alarm, s *dataset.Series) metrics.AlarmStats {
	st := metrics.AlarmStats{Alarms: len(alarms)}
	if s.Anomalous == nil {
		return st
	}
	for _, a := range alarms {
		for i := a.StartIdx; i <= a.EndIdx && i < s.Len(); i++ {
			if s.Anomalous[i] {
				st.Correct++
				break
			}
		}
	}
	return st
}

// TrueEpisodes counts maximal runs of labelled anomalous timesteps — the
// ground-truth "performance problems" of Table 5 (the paper had 35).
func TrueEpisodes(s *dataset.Series) int {
	if s.Anomalous == nil {
		return 0
	}
	n := 0
	prev := false
	for _, a := range s.Anomalous {
		if a && !prev {
			n++
		}
		prev = a
	}
	return n
}

// DetectedEpisodes counts how many ground-truth episodes are covered by at
// least one alarm (a recall-style view the paper reports as "detected
// performance problems").
func DetectedEpisodes(alarms []Alarm, s *dataset.Series) int {
	if s.Anomalous == nil {
		return 0
	}
	covered := 0
	start := -1
	for i := 0; i <= s.Len(); i++ {
		anom := i < s.Len() && s.Anomalous[i]
		if anom && start < 0 {
			start = i
		}
		if !anom && start >= 0 {
			for _, a := range alarms {
				if a.StartIdx <= i-1 && a.EndIdx >= start {
					covered++
					break
				}
			}
			start = -1
		}
	}
	return covered
}
