package tsdb

import (
	"net/http/httptest"
	"strings"
	"testing"
)

// TestDashboard: the fleet view renders as self-contained HTML with a
// sparkline for series in the window, burn gauges, and the alert table.
func TestDashboard(t *testing.T) {
	db := New()
	now := int64(3600)
	for ts := now - 600; ts <= now; ts += 60 {
		if err := db.Append(Labels{"__name__": "env2vec_serve_queue_depth", "instance": "b0"}, ts, float64(ts%7)); err != nil {
			t.Fatal(err)
		}
	}
	// A recorded burn-rate point puts the 5m gauge into "crit".
	if err := db.Append(Labels{"__name__": "slo:serve:burn_rate:5m"}, now, 20); err != nil {
		t.Fatal(err)
	}
	rules := NewRules(db)
	rules.Now = func() int64 { return now }
	if err := rules.Load(RuleFile{Alerting: []AlertingRule{{
		Name: "QueueDeep", Expr: "env2vec_serve_queue_depth > 1",
		Annotations: map[string]string{"summary": "deep queue"},
	}}}); err != nil {
		t.Fatal(err)
	}
	rules.EvalOnce()

	h := &Handler{DB: db, Rules: rules, Now: func() int64 { return now }}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/dashboard", nil))
	if rec.Code != 200 {
		t.Fatalf("dashboard status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"env2vec fleet health",
		"<polyline points=",  // sparkline for the queue-depth series
		"instance=b0",        // series label
		"QueueDeep",          // alert table row
		"state-firing",       // its state styling
		"deep queue",         // annotation
		`class="gauge crit"`, // 20x burn vs 14.4 threshold
		"no data",            // windows without recorded burn rate
	} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	if strings.Contains(body, "<script") {
		t.Error("dashboard must not use scripts")
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("content type %q", ct)
	}

	// A Handler with only a DB serves /dashboard and /query (no rules,
	// so no alert table rows and an empty vector for an unknown name).
	bare := &Handler{DB: db}
	rec = httptest.NewRecorder()
	bare.ServeHTTP(rec, httptest.NewRequest("GET", "/dashboard", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "no pending or firing alerts") {
		t.Fatalf("rule-less dashboard status %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	bare.ServeHTTP(rec, httptest.NewRequest("GET", "/query?expr=up", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"data":[]`) {
		t.Fatalf("rule-less query: %d %s", rec.Code, rec.Body.String())
	}
}
