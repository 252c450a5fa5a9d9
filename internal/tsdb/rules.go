// Rules engine: recording rules materialise query results back into the
// DB under a new metric name, and alerting rules drive a
// pending→firing state machine whose firing alerts are pushed into the
// alarm pipeline as anomaly.Alarms (Source "slo"). Together with the
// query engine this turns tsdbd from a passive sample sink into the
// fleet's monitoring plane.
//
// Rules load from a JSON file (see RuleFile) and hot-reload when the
// file changes on disk — no restart needed to tune an objective.
// DefaultSLORules builds the multi-window, multi-burn-rate SLO policy
// from the SRE workbook: a fast-burn alert (14.4x over 5m AND 1h) that
// catches outages in minutes, and a slow-burn alert (6x over 30m AND
// 6h) that catches budget-eating brownouts.
package tsdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"env2vec/internal/anomaly"
)

// AlarmSink receives firing alerts. quality.StoreSink and
// quality.HTTPSink satisfy it structurally, so tsdb stays decoupled
// from the quality package (same pattern as Handler.SelfMetrics).
type AlarmSink interface {
	Push(a anomaly.Alarm, createdAt int64) error
}

// RecordingRule evaluates Expr each cycle and appends the result to the
// DB under Name (plus the result's own labels and any extra Labels).
// Names may contain ':' — the conventional level:metric:window shape.
type RecordingRule struct {
	Name   string            `json:"name"`
	Expr   string            `json:"expr"`
	Labels map[string]string `json:"labels,omitempty"`
}

// AlertingRule evaluates Expr each cycle; any resulting element becomes
// a pending alert, promoted to firing once it has been present
// continuously for For (a duration string like "2m").
type AlertingRule struct {
	Name        string            `json:"name"`
	Expr        string            `json:"expr"`
	For         string            `json:"for,omitempty"`
	Labels      map[string]string `json:"labels,omitempty"`
	Annotations map[string]string `json:"annotations,omitempty"`
}

// RuleFile is the on-disk rule set: recording rules evaluate first (in
// order), so alerting rules may reference names recorded the same
// cycle.
type RuleFile struct {
	Recording []RecordingRule `json:"recording"`
	Alerting  []AlertingRule  `json:"alerting"`
}

// Alert state machine values, mirrored into the synthetic
// ALERTS{alertname,state} series.
const (
	StatePending = "pending"
	StateFiring  = "firing"
)

// ActiveAlert is one pending or firing alert instance, as served by
// GET /alerts and rendered on the dashboard.
type ActiveAlert struct {
	Name        string            `json:"name"`
	State       string            `json:"state"`
	Labels      map[string]string `json:"labels,omitempty"`
	Annotations map[string]string `json:"annotations,omitempty"`
	ActiveSince int64             `json:"active_since"` // unix seconds
	Value       float64           `json:"value"`        // most recent expr value
}

type alertInstance struct {
	rule        AlertingRule
	labels      Labels // element labels from the expr result
	state       string
	activeSince int64
	value       float64
	pushed      bool // alarm already sent to the sink
}

// Rules evaluates a RuleFile against a DB on each EvalOnce call.
// All methods are safe for concurrent use; EvalOnce is typically driven
// by the scrape loop while HTTP handlers read ActiveAlerts.
type Rules struct {
	// Path, when set, is the JSON rule file; EvalOnce re-reads it and
	// reinstalls it whenever its bytes differ from the installed set's
	// (hot reload). A file that fails to parse keeps the previous rule
	// set active.
	Path string
	// Sink, when non-nil, receives an anomaly.Alarm (Source "slo")
	// once per alert instance when it transitions to firing.
	Sink AlarmSink
	// Now supplies evaluation time; defaults to the wall clock.
	Now    func() int64
	Logger *slog.Logger

	db     *DB
	mu     sync.Mutex
	file   RuleFile
	raw    []byte // Path's bytes when file was installed from it
	active map[string]*alertInstance

	evals    atomic.Uint64
	failures atomic.Uint64
	reloads  atomic.Uint64
	alarms   atomic.Uint64
	pending  atomic.Int64
	firing   atomic.Int64
}

// NewRules returns a rules engine over db with no rules loaded.
func NewRules(db *DB) *Rules {
	return &Rules{db: db, active: make(map[string]*alertInstance)}
}

func (r *Rules) now() int64 {
	if r.Now != nil {
		return r.Now()
	}
	return time.Now().Unix()
}

// validateFile parses every expression and For duration so a bad rule
// file is rejected atomically at load time, not element-by-element at
// eval time.
func validateFile(rf RuleFile) error {
	for _, rr := range rf.Recording {
		if rr.Name == "" {
			return fmt.Errorf("tsdb: recording rule with empty name")
		}
		if _, err := ParseExpr(rr.Expr); err != nil {
			return fmt.Errorf("tsdb: recording rule %q: %w", rr.Name, err)
		}
	}
	for _, ar := range rf.Alerting {
		if ar.Name == "" {
			return fmt.Errorf("tsdb: alerting rule with empty name")
		}
		if _, err := ParseExpr(ar.Expr); err != nil {
			return fmt.Errorf("tsdb: alerting rule %q: %w", ar.Name, err)
		}
		if ar.For != "" {
			if _, err := parseDuration(ar.For); err != nil {
				return fmt.Errorf("tsdb: alerting rule %q: bad for: %w", ar.Name, err)
			}
		}
	}
	return nil
}

// Load installs a rule set directly (no file). Alert state for rules
// that survive the reload is preserved by name+labels identity.
func (r *Rules) Load(rf RuleFile) error {
	if err := validateFile(rf); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.installLocked(rf)
	return nil
}

func (r *Rules) installLocked(rf RuleFile) {
	r.file = rf
	// Drop state for alert rules that no longer exist.
	names := make(map[string]bool, len(rf.Alerting))
	for _, ar := range rf.Alerting {
		names[ar.Name] = true
	}
	for k, inst := range r.active {
		if !names[inst.rule.Name] {
			delete(r.active, k)
		}
	}
}

// LoadFile reads, validates, and installs the rule file at path, and
// arms hot reload for subsequent EvalOnce calls.
func (r *Rules) LoadFile(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("tsdb: rules: %w", err)
	}
	rf, err := parseRuleFile(path, b)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Path, r.raw = path, b
	r.installLocked(rf)
	return nil
}

func parseRuleFile(path string, b []byte) (RuleFile, error) {
	var rf RuleFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return rf, fmt.Errorf("tsdb: rules %s: %w", path, err)
	}
	return rf, validateFile(rf)
}

// maybeReloadLocked re-reads Path and installs it if its bytes differ
// from the installed set's. Comparing content, not mtime and size, sees
// an edit that keeps both.
func (r *Rules) maybeReloadLocked() {
	if r.Path == "" {
		return
	}
	b, err := os.ReadFile(r.Path)
	if err != nil {
		return // transient (e.g. atomic-rename window); keep current rules
	}
	if r.raw != nil && bytes.Equal(b, r.raw) {
		return
	}
	rf, err := parseRuleFile(r.Path, b)
	if err != nil {
		r.failures.Add(1)
		logger(r.Logger).Error("rules reload failed; keeping previous rules", "path", r.Path, "err", err)
		return
	}
	r.raw = b
	r.installLocked(rf)
	r.reloads.Add(1)
	logger(r.Logger).Info("rules reloaded", "path", r.Path,
		"recording", len(rf.Recording), "alerting", len(rf.Alerting))
}

// EvalOnce runs one evaluation cycle: hot-reload check, recording rules
// in order, then alerting rules with state transitions, ALERTS series,
// and alarm pushes. It is what the scrape loop calls each interval.
func (r *Rules) EvalOnce() {
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.maybeReloadLocked()

	for _, rr := range r.file.Recording {
		r.evals.Add(1)
		vec, err := r.db.Instant(rr.Expr, now)
		if err != nil {
			r.failures.Add(1)
			logger(r.Logger).Error("recording rule failed", "rule", rr.Name, "err", err)
			continue
		}
		for _, p := range vec {
			lbls := Labels{"__name__": rr.Name}
			for k, v := range p.Labels {
				if k != "__name__" {
					lbls[k] = v
				}
			}
			for k, v := range rr.Labels {
				lbls[k] = v
			}
			if err := r.db.Append(lbls, now, p.V); err != nil {
				r.failures.Add(1)
			}
		}
	}

	seen := make(map[string]bool)
	for _, ar := range r.file.Alerting {
		r.evals.Add(1)
		vec, err := r.db.Instant(ar.Expr, now)
		if err != nil {
			r.failures.Add(1)
			logger(r.Logger).Error("alerting rule failed", "rule", ar.Name, "err", err)
			continue
		}
		forSec := int64(0)
		if ar.For != "" {
			forSec, _ = parseDuration(ar.For) // validated at load
		}
		for _, p := range vec {
			key := ar.Name + "\x00" + p.Labels.Fingerprint()
			seen[key] = true
			inst := r.active[key]
			if inst == nil {
				inst = &alertInstance{
					rule: ar, labels: dropName(p.Labels),
					state: StatePending, activeSince: now,
				}
				r.active[key] = inst
			}
			inst.value = p.V
			if inst.state == StatePending && now-inst.activeSince >= forSec {
				inst.state = StateFiring
			}
			if inst.state == StateFiring && !inst.pushed {
				inst.pushed = true
				r.pushAlarmLocked(inst, now)
			}
		}
	}
	// Resolve alert instances whose expression no longer returns them.
	for key, inst := range r.active {
		if !seen[key] {
			logger(r.Logger).Info("alert resolved", "rule", inst.rule.Name, "state", inst.state)
			delete(r.active, key)
		}
	}

	var pending, firing int64
	for _, inst := range r.active {
		lbls := Labels{"__name__": "ALERTS", "alertname": inst.rule.Name, "state": inst.state}
		for k, v := range inst.labels {
			if _, taken := lbls[k]; !taken {
				lbls[k] = v
			}
		}
		_ = r.db.Append(lbls, now, 1)
		if inst.state == StateFiring {
			firing++
		} else {
			pending++
		}
	}
	r.pending.Store(pending)
	r.firing.Store(firing)
}

// pushAlarmLocked converts a newly-firing alert into an anomaly.Alarm
// and sends it to the sink. The mapping reuses the drift alarm's
// locator fields: Detector carries the rule name, Testbed the instance
// (when the alert is per-backend), and the interval spans
// pending-start to firing-time.
func (r *Rules) pushAlarmLocked(inst *alertInstance, now int64) {
	if r.Sink == nil {
		return
	}
	chain := inst.rule.Labels["service"]
	if chain == "" {
		chain = "fleet"
	}
	a := anomaly.Alarm{
		Source:    "slo",
		Detector:  inst.rule.Name,
		ChainID:   chain,
		Testbed:   inst.labels["instance"],
		Build:     inst.rule.Annotations["summary"],
		StartTime: inst.activeSince,
		EndTime:   now,
		PeakDev:   inst.value,
	}
	if err := r.Sink.Push(a, now); err != nil {
		r.failures.Add(1)
		logger(r.Logger).Error("alarm push failed", "rule", inst.rule.Name, "err", err)
		return
	}
	r.alarms.Add(1)
	logger(r.Logger).Warn("alert firing", "rule", inst.rule.Name, "value", inst.value)
}

// ActiveAlerts returns the current pending and firing alerts, firing
// first, then by name.
func (r *Rules) ActiveAlerts() []ActiveAlert {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ActiveAlert, 0, len(r.active))
	for _, inst := range r.active {
		out = append(out, ActiveAlert{
			Name:        inst.rule.Name,
			State:       inst.state,
			Labels:      inst.labels.Clone(),
			Annotations: Labels(inst.rule.Annotations).Clone(),
			ActiveSince: inst.activeSince,
			Value:       inst.value,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].State != out[j].State {
			return out[i].State == StateFiring
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Self-metric accessors, registered as tsdb_rule_* counters/gauges by
// cmd/tsdbd (tsdb itself stays decoupled from the obs registry).
func (r *Rules) Evals() uint64        { return r.evals.Load() }
func (r *Rules) EvalFailures() uint64 { return r.failures.Load() }
func (r *Rules) Reloads() uint64      { return r.reloads.Load() }
func (r *Rules) AlarmsPushed() uint64 { return r.alarms.Load() }
func (r *Rules) PendingAlerts() int64 { return r.pending.Load() }
func (r *Rules) FiringAlerts() int64  { return r.firing.Load() }

// DefaultSLORules builds the built-in SLO policy over the proxy's
// request counters and latency histogram:
//
//   - availability: error ratio = (total − served) / total from
//     env2vec_proxy_requests_total, so shed and failed both burn
//     budget. Burn rate = error ratio / (1 − objective). Fast burn
//     fires at 14.4x over 5m AND 1h (2% of a 30d budget in 1h); slow
//     burn at 6x over 30m AND 6h.
//   - latency: p99 of env2vec_proxy_request_latency_ms against
//     latencyObjectiveMs, sustained for 5m.
//
// objective is the availability target in (0,1), e.g. 0.99.
func DefaultSLORules(objective, latencyObjectiveMs float64) RuleFile {
	budget := strconv.FormatFloat(1-objective, 'g', -1, 64)
	errRatio := func(window string) string {
		total := `sum(rate(env2vec_proxy_requests_total[` + window + `]))`
		served := `sum(rate(env2vec_proxy_requests_total{outcome="served"}[` + window + `]))`
		return "(" + total + " - " + served + ") / " + total
	}
	var rf RuleFile
	for _, w := range []string{"5m", "30m", "1h", "6h"} {
		rf.Recording = append(rf.Recording,
			RecordingRule{Name: "slo:serve:error_ratio:" + w, Expr: errRatio(w)},
			RecordingRule{Name: "slo:serve:burn_rate:" + w,
				Expr: "slo:serve:error_ratio:" + w + " / " + budget},
		)
	}
	rf.Recording = append(rf.Recording, RecordingRule{
		Name: "slo:serve:latency_p99:5m",
		Expr: `histogram_quantile(0.99, sum by (le) (rate(env2vec_proxy_request_latency_ms_bucket[5m])))`,
	})
	rf.Alerting = append(rf.Alerting,
		AlertingRule{
			Name: "ServeAvailabilityFastBurn",
			Expr: "slo:serve:burn_rate:5m > 14.4 and slo:serve:burn_rate:1h > 14.4",
			For:  "2m",
			Annotations: map[string]string{
				"summary":  "availability error budget burning at >=14.4x (fast)",
				"severity": "page",
			},
		},
		AlertingRule{
			Name: "ServeAvailabilitySlowBurn",
			Expr: "slo:serve:burn_rate:30m > 6 and slo:serve:burn_rate:6h > 6",
			For:  "15m",
			Annotations: map[string]string{
				"summary":  "availability error budget burning at >=6x (slow)",
				"severity": "ticket",
			},
		},
		AlertingRule{
			Name: "ServeLatencyP99High",
			Expr: "slo:serve:latency_p99:5m > " + strconv.FormatFloat(latencyObjectiveMs, 'g', -1, 64),
			For:  "5m",
			Annotations: map[string]string{
				"summary":  "p99 request latency above objective",
				"severity": "page",
			},
		},
	)
	return rf
}
