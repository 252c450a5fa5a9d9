package tsdb

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"env2vec/internal/anomaly"
)

// memSink collects pushed alarms for assertions.
type memSink struct {
	mu     sync.Mutex
	alarms []anomaly.Alarm
}

func (s *memSink) Push(a anomaly.Alarm, createdAt int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.alarms = append(s.alarms, a)
	return nil
}

func (s *memSink) all() []anomaly.Alarm {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]anomaly.Alarm(nil), s.alarms...)
}

// fakeClock steps time manually for deterministic rule evaluation.
type fakeClock struct{ t int64 }

func (c *fakeClock) now() int64      { return c.t }
func (c *fakeClock) advance(s int64) { c.t += s }

// TestRulesStateMachine: an alert goes inactive → pending → firing
// after For elapses, pushes exactly one slo alarm, and resolves when
// the condition clears.
func TestRulesStateMachine(t *testing.T) {
	db := New()
	clk := &fakeClock{t: 1000}
	sink := &memSink{}
	r := NewRules(db)
	r.Sink = sink
	r.Now = clk.now
	if err := r.Load(RuleFile{
		Alerting: []AlertingRule{{
			Name: "QueueDeep", Expr: "qd > 5", For: "30s",
			Annotations: map[string]string{"summary": "queue too deep"},
		}},
	}); err != nil {
		t.Fatal(err)
	}

	appendGauge := func(v float64) {
		if err := db.Append(Labels{"__name__": "qd", "instance": "a"}, clk.t, v); err != nil {
			t.Fatal(err)
		}
	}

	// Below threshold: no alert.
	appendGauge(3)
	r.EvalOnce()
	if got := r.ActiveAlerts(); len(got) != 0 {
		t.Fatalf("no alert expected, got %v", got)
	}

	// Crosses threshold: pending.
	clk.advance(15)
	appendGauge(9)
	r.EvalOnce()
	alerts := r.ActiveAlerts()
	if len(alerts) != 1 || alerts[0].State != StatePending {
		t.Fatalf("want one pending alert, got %v", alerts)
	}
	if alerts[0].Labels["instance"] != "a" {
		t.Fatalf("alert should carry element labels, got %v", alerts[0].Labels)
	}
	if r.PendingAlerts() != 1 || r.FiringAlerts() != 0 {
		t.Fatalf("gauges: pending=%d firing=%d", r.PendingAlerts(), r.FiringAlerts())
	}
	if len(sink.all()) != 0 {
		t.Fatal("pending must not push an alarm")
	}

	// Still above threshold after For: firing, one alarm pushed.
	clk.advance(30)
	appendGauge(10)
	r.EvalOnce()
	alerts = r.ActiveAlerts()
	if len(alerts) != 1 || alerts[0].State != StateFiring {
		t.Fatalf("want firing, got %v", alerts)
	}
	got := sink.all()
	if len(got) != 1 {
		t.Fatalf("want 1 alarm, got %d", len(got))
	}
	if got[0].Source != "slo" || got[0].Detector != "QueueDeep" || got[0].Testbed != "a" {
		t.Fatalf("alarm fields wrong: %+v", got[0])
	}
	if got[0].PeakDev != 10 {
		t.Fatalf("alarm value = %v, want 10", got[0].PeakDev)
	}

	// Stays firing: no duplicate alarm.
	clk.advance(15)
	appendGauge(12)
	r.EvalOnce()
	if len(sink.all()) != 1 {
		t.Fatal("firing alert must push exactly once")
	}

	// ALERTS synthetic series recorded the transition.
	series := db.Query(Labels{"__name__": "ALERTS", "alertname": "QueueDeep"}, 0, clk.t)
	if len(series) == 0 {
		t.Fatal("no ALERTS series recorded")
	}
	states := map[string]bool{}
	for _, s := range series {
		states[s.Labels["state"]] = true
	}
	if !states[StatePending] || !states[StateFiring] {
		t.Fatalf("ALERTS states seen: %v", states)
	}

	// Condition clears: alert resolves; recovering re-fires later.
	clk.advance(15)
	appendGauge(1)
	r.EvalOnce()
	if got := r.ActiveAlerts(); len(got) != 0 {
		t.Fatalf("alert should have resolved, got %v", got)
	}
	if r.FiringAlerts() != 0 {
		t.Fatal("firing gauge should be zero after resolve")
	}
}

// TestRecordingFeedsAlerting: a recording rule's output is visible to
// an alerting rule evaluated in the same cycle.
func TestRecordingFeedsAlerting(t *testing.T) {
	db := New()
	clk := &fakeClock{t: 500}
	r := NewRules(db)
	r.Now = clk.now
	if err := r.Load(RuleFile{
		Recording: []RecordingRule{{Name: "job:qd:doubled", Expr: "qd * 2"}},
		Alerting:  []AlertingRule{{Name: "Doubled", Expr: "job:qd:doubled > 10"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(Labels{"__name__": "qd"}, clk.t, 6); err != nil {
		t.Fatal(err)
	}
	r.EvalOnce()
	// Recorded series exists with the rule name...
	if s := db.Query(Labels{"__name__": "job:qd:doubled"}, 0, clk.t); len(s) != 1 || s[0].Samples[0].V != 12 {
		t.Fatalf("recorded series wrong: %v", s)
	}
	// ...and the alert over it is active (For defaults to 0 → firing).
	alerts := r.ActiveAlerts()
	if len(alerts) != 1 || alerts[0].State != StateFiring {
		t.Fatalf("want immediate firing, got %v", alerts)
	}
}

func writeRules(t *testing.T, path string, rf RuleFile) {
	t.Helper()
	b, err := json.Marshal(rf)
	if err != nil {
		t.Fatal(err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
}

// TestRulesHotReload: editing the rule file on disk swaps the rule set
// on the next EvalOnce; a broken file keeps the previous set. EvalOnce
// runs concurrently with the rewrite to exercise the locking under
// -race.
func TestRulesHotReload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rules.json")
	writeRules(t, path, RuleFile{
		Alerting: []AlertingRule{{Name: "V1", Expr: "qd > 100"}},
	})

	db := New()
	// Time stands still during the concurrent phase so the seeded
	// sample never goes stale, no matter how fast the eval loop spins.
	const now = int64(100)
	r := NewRules(db)
	r.Now = func() int64 { return now }
	if err := r.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(Labels{"__name__": "qd"}, now, 50); err != nil {
		t.Fatal(err)
	}

	// Concurrent evaluator, as in the tsdbd scrape loop.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.EvalOnce()
			}
		}
	}()

	// Rewrite with a V2 rule that fires on the seeded sample.
	writeRules(t, path, RuleFile{
		Alerting: []AlertingRule{{Name: "V2RuleWithALongerName", Expr: "qd > 10"}},
	})
	deadline := time.Now().Add(5 * time.Second)
	for r.Reloads() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("reload never happened")
		}
		time.Sleep(time.Millisecond)
	}
	for time.Now().Before(deadline) {
		alerts := r.ActiveAlerts()
		if len(alerts) == 1 && alerts[0].Name == "V2RuleWithALongerName" {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	alerts := r.ActiveAlerts()
	if len(alerts) != 1 || alerts[0].Name != "V2RuleWithALongerName" {
		t.Fatalf("V2 rule not active after reload: %v", alerts)
	}

	// A corrupt file is rejected; the V2 set stays active.
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	failsBefore := r.EvalFailures()
	r.EvalOnce()
	if r.EvalFailures() <= failsBefore {
		t.Fatal("corrupt reload should count as failure")
	}
	r.EvalOnce()
	if alerts := r.ActiveAlerts(); len(alerts) != 1 || alerts[0].Name != "V2RuleWithALongerName" {
		t.Fatalf("corrupt reload must keep previous rules, got %v", alerts)
	}
	if r.EvalFailures() != failsBefore+2 {
		t.Fatalf("a corrupt file counts one failure per cycle: %d -> %d", failsBefore, r.EvalFailures())
	}
}

// TestRulesReloadSameSizeSameMtime: an edit that keeps the file's size
// and mtime (a same-length rename of a rule, then a restored timestamp)
// still reloads: the file's bytes decide, not its metadata.
func TestRulesReloadSameSizeSameMtime(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rules.json")
	writeRules(t, path, RuleFile{Alerting: []AlertingRule{{Name: "A", Expr: "qd > 1"}}})
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	db := New()
	r := NewRules(db)
	r.Now = func() int64 { return 100 }
	if err := r.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(Labels{"__name__": "qd"}, 100, 5); err != nil {
		t.Fatal(err)
	}
	r.EvalOnce()
	if a := r.ActiveAlerts(); len(a) != 1 || a[0].Name != "A" {
		t.Fatalf("before the edit: %v", a)
	}

	writeRules(t, path, RuleFile{Alerting: []AlertingRule{{Name: "B", Expr: "qd > 1"}}})
	if err := os.Chtimes(path, fi.ModTime(), fi.ModTime()); err != nil {
		t.Fatal(err)
	}
	if fi2, err := os.Stat(path); err != nil || fi2.Size() != fi.Size() || !fi2.ModTime().Equal(fi.ModTime()) {
		t.Fatalf("setup: size/mtime moved: %v %v", fi2, err)
	}
	r.EvalOnce()
	if a := r.ActiveAlerts(); len(a) != 1 || a[0].Name != "B" {
		t.Fatalf("after a same-size, same-mtime edit the file says B, EvalOnce runs %v", a)
	}
	if r.Reloads() != 1 {
		t.Fatalf("reloads = %d, want 1", r.Reloads())
	}
	// An unchanged file is not reloaded again.
	r.EvalOnce()
	if r.Reloads() != 1 {
		t.Fatalf("unchanged file reloaded: reloads = %d", r.Reloads())
	}
}

// TestLoadRejectsBadRules: invalid expressions and durations fail
// atomically at load time.
func TestLoadRejectsBadRules(t *testing.T) {
	r := NewRules(New())
	if err := r.Load(RuleFile{Recording: []RecordingRule{{Name: "x", Expr: "sum("}}}); err == nil {
		t.Fatal("bad recording expr should fail")
	}
	if err := r.Load(RuleFile{Alerting: []AlertingRule{{Name: "x", Expr: "m > 1", For: "5parsecs"}}}); err == nil {
		t.Fatal("bad for duration should fail")
	}
	if err := r.Load(RuleFile{Alerting: []AlertingRule{{Expr: "m > 1"}}}); err == nil {
		t.Fatal("empty name should fail")
	}
}

// TestDefaultSLORules: the built-in policy parses, and the fast-burn
// alert fires end-to-end from raw proxy counters pushed through the
// recording chain.
func TestDefaultSLORules(t *testing.T) {
	rf := DefaultSLORules(0.99, 250)
	if err := validateFile(rf); err != nil {
		t.Fatalf("default rules invalid: %v", err)
	}

	db := New()
	clk := &fakeClock{t: 0}
	sink := &memSink{}
	r := NewRules(db)
	r.Sink = sink
	r.Now = clk.now
	if err := r.Load(rf); err != nil {
		t.Fatal(err)
	}

	// 50% of requests fail: error ratio 0.5, burn rate 50 against a 1%
	// budget — far above both fast-burn thresholds. Counters grow 10
	// served + 10 failed per 15s cycle.
	var served, failed float64
	for cycle := 0; cycle < 20; cycle++ {
		served += 10
		failed += 10
		lbl := Labels{"__name__": "env2vec_proxy_requests_total", "outcome": "served", "instance": "p"}
		if err := db.Append(lbl, clk.t, served); err != nil {
			t.Fatal(err)
		}
		lbl = Labels{"__name__": "env2vec_proxy_requests_total", "outcome": "failed", "instance": "p"}
		if err := db.Append(lbl, clk.t, failed); err != nil {
			t.Fatal(err)
		}
		r.EvalOnce()
		clk.advance(15)
	}

	var fast *anomaly.Alarm
	for _, a := range sink.all() {
		if a.Detector == "ServeAvailabilityFastBurn" {
			fast = &a
			break
		}
	}
	if fast == nil {
		t.Fatalf("fast burn alarm never fired; alerts now: %v", r.ActiveAlerts())
	}
	if fast.Source != "slo" {
		t.Fatalf("alarm source = %q, want slo", fast.Source)
	}
	// Burn rate = 0.5 / 0.01 = 50, recorded by the rule chain.
	v, err := db.Instant("slo:serve:burn_rate:5m", clk.t-15)
	if err != nil || len(v) != 1 {
		t.Fatalf("burn rate series missing: %v %v", v, err)
	}
	if v[0].V < 49.9 || v[0].V > 50.1 {
		t.Fatalf("burn rate = %v, want ~50", v[0].V)
	}
}
