package tsdb

import (
	"math"
	"testing"
)

// mustAppend seeds one series with (t, v) pairs.
func mustAppend(t *testing.T, db *DB, labels Labels, samples ...Sample) {
	t.Helper()
	for _, s := range samples {
		if err := db.Append(labels, s.T, s.V); err != nil {
			t.Fatalf("append %v: %v", labels, err)
		}
	}
}

func instant(t *testing.T, db *DB, expr string, ts int64) Vector {
	t.Helper()
	v, err := db.Instant(expr, ts)
	if err != nil {
		t.Fatalf("Instant(%q): %v", expr, err)
	}
	return v
}

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s = %v, want %v (tol %v)", what, got, want, tol)
	}
}

// TestRateSimpleCounter: hand-computed fixture. Counter at t=0:0, t=15:30,
// t=30:60, t=60:120 → delta 120 over 60s → rate 2.0/s; increase 120.
func TestRateSimpleCounter(t *testing.T) {
	db := New()
	lbls := Labels{"__name__": "reqs_total", "job": "serve"}
	mustAppend(t, db, lbls, Sample{0, 0}, Sample{15, 30}, Sample{30, 60}, Sample{60, 120})

	v := instant(t, db, `rate(reqs_total[60s])`, 60)
	if len(v) != 1 {
		t.Fatalf("rate returned %d points, want 1", len(v))
	}
	approx(t, v[0].V, 2.0, 1e-12, "rate")
	if v[0].Labels["__name__"] != "" || v[0].Labels["job"] != "serve" {
		t.Fatalf("rate labels wrong: %v", v[0].Labels)
	}

	v = instant(t, db, `increase(reqs_total[1m])`, 60)
	approx(t, v[0].V, 120, 1e-12, "increase")

	// A narrower window sees only t=30 and t=60: delta 60 over 30s → 2.0/s.
	v = instant(t, db, `rate(reqs_total[30s])`, 60)
	approx(t, v[0].V, 2.0, 1e-12, "windowed rate")
}

// TestRateCounterReset: a backend restart mid-window drops the counter to
// zero; the reset adjustment must count the pre-reset value. Samples
// 0:100 → 15:150 → 30:10 (reset) → 45:40. Adjusted delta = (150-100) +
// (10-0 after reset: offset 150) + (40-10) = 40-100+150 = 90 over 45s = 2.0.
func TestRateCounterReset(t *testing.T) {
	db := New()
	lbls := Labels{"__name__": "reqs_total"}
	mustAppend(t, db, lbls, Sample{0, 100}, Sample{15, 150}, Sample{30, 10}, Sample{45, 40})

	v := instant(t, db, `increase(reqs_total[45s])`, 45)
	approx(t, v[0].V, 90, 1e-12, "increase across reset")

	v = instant(t, db, `rate(reqs_total[45s])`, 45)
	approx(t, v[0].V, 2.0, 1e-12, "rate across reset")

	// Two resets in one window: 0:50 → 10:5 (reset) → 20:60 → 30:3 (reset) →
	// 40:10. Delta = (50→5: +50) (5→60: ) (60→3: +60) = 10-50+50+60 = 70.
	lbls2 := Labels{"__name__": "double_reset"}
	mustAppend(t, db, lbls2, Sample{0, 50}, Sample{10, 5}, Sample{20, 60}, Sample{30, 3}, Sample{40, 10})
	v = instant(t, db, `increase(double_reset[40s])`, 40)
	approx(t, v[0].V, 70, 1e-12, "increase across two resets")
}

// TestRateNeedsTwoSamples: one sample in the window yields no element.
func TestRateNeedsTwoSamples(t *testing.T) {
	db := New()
	mustAppend(t, db, Labels{"__name__": "lonely_total"}, Sample{100, 5})
	if v := instant(t, db, `rate(lonely_total[60s])`, 120); len(v) != 0 {
		t.Fatalf("rate over one sample returned %v", v)
	}
}

// TestAggregationBy: sum/avg/max/min/count grouped on one label.
func TestAggregationBy(t *testing.T) {
	db := New()
	mustAppend(t, db, Labels{"__name__": "qd", "instance": "a", "shard": "0"}, Sample{10, 4})
	mustAppend(t, db, Labels{"__name__": "qd", "instance": "a", "shard": "1"}, Sample{10, 6})
	mustAppend(t, db, Labels{"__name__": "qd", "instance": "b", "shard": "0"}, Sample{10, 10})

	v := instant(t, db, `sum by (instance) (qd)`, 10)
	if len(v) != 2 {
		t.Fatalf("sum by returned %d groups: %v", len(v), v)
	}
	byInst := map[string]float64{}
	for _, p := range v {
		byInst[p.Labels["instance"]] = p.V
	}
	approx(t, byInst["a"], 10, 0, "sum a")
	approx(t, byInst["b"], 10, 0, "sum b")

	v = instant(t, db, `avg by (instance) (qd)`, 10)
	for _, p := range v {
		if p.Labels["instance"] == "a" {
			approx(t, p.V, 5, 0, "avg a")
		}
	}
	v = instant(t, db, `max(qd)`, 10)
	if len(v) != 1 || v[0].V != 10 {
		t.Fatalf("max(qd) = %v", v)
	}
	v = instant(t, db, `min(qd)`, 10)
	if v[0].V != 4 {
		t.Fatalf("min(qd) = %v", v)
	}
	v = instant(t, db, `count(qd)`, 10)
	if v[0].V != 3 {
		t.Fatalf("count(qd) = %v", v)
	}
}

// TestHistogramQuantile: synthetic bucket distribution with hand-computed
// quantiles. Buckets le=10:40, le=20:70, le=50:95, le=+Inf:100 (cumulative).
// p50 → rank 50 lands in (10,20]: 10 + 10*(50-40)/30 = 13.333…
// p90 → rank 90 lands in (20,50]: 20 + 30*(90-70)/25 = 44.0
// p99 → rank 99 lands in +Inf bucket → highest finite bound 50.
func TestHistogramQuantile(t *testing.T) {
	db := New()
	for _, b := range []struct {
		le string
		v  float64
	}{{"10", 40}, {"20", 70}, {"50", 95}, {"+Inf", 100}} {
		mustAppend(t, db, Labels{"__name__": "lat_ms_bucket", "le": b.le}, Sample{100, b.v})
	}

	v := instant(t, db, `histogram_quantile(0.5, lat_ms_bucket)`, 100)
	if len(v) != 1 {
		t.Fatalf("histogram_quantile returned %d points", len(v))
	}
	approx(t, v[0].V, 10+10.0*10/30, 1e-9, "p50")

	v = instant(t, db, `histogram_quantile(0.9, lat_ms_bucket)`, 100)
	approx(t, v[0].V, 44.0, 1e-9, "p90")

	v = instant(t, db, `histogram_quantile(0.99, lat_ms_bucket)`, 100)
	approx(t, v[0].V, 50.0, 1e-9, "p99 beyond last finite bound")
}

// TestHistogramQuantileGroups: two instances keep separate quantiles, and
// composing with sum by (le) over rate() reconstructs the fleet quantile.
func TestHistogramQuantileGroups(t *testing.T) {
	db := New()
	// Instance a: all 100 observations ≤ 10. Instance b: all 100 in (10, 50].
	for _, fix := range []struct {
		inst string
		c10  float64
		c50  float64
	}{{"a", 100, 100}, {"b", 0, 100}} {
		mustAppend(t, db, Labels{"__name__": "lat_ms_bucket", "le": "10", "instance": fix.inst},
			Sample{0, 0}, Sample{60, fix.c10})
		mustAppend(t, db, Labels{"__name__": "lat_ms_bucket", "le": "50", "instance": fix.inst},
			Sample{0, 0}, Sample{60, fix.c50})
		mustAppend(t, db, Labels{"__name__": "lat_ms_bucket", "le": "+Inf", "instance": fix.inst},
			Sample{0, 0}, Sample{60, fix.c50})
	}

	// Per-instance p99 stays grouped by instance.
	v := instant(t, db, `histogram_quantile(0.99, lat_ms_bucket)`, 60)
	if len(v) != 2 {
		t.Fatalf("grouped quantile returned %d points: %v", len(v), v)
	}
	for _, p := range v {
		switch p.Labels["instance"] {
		case "a":
			approx(t, p.V, 9.9, 1e-9, "instance a p99")
		case "b":
			approx(t, p.V, 10+40*(99.0-0)/100/1, 1e-6, "instance b p99") // 10+40*0.99
		default:
			t.Fatalf("unexpected group %v", p.Labels)
		}
	}

	// The fleet view: sum the per-instance bucket rates, then take the
	// quantile. 200 obs total, 100 ≤ 10, 200 ≤ 50: p50 → rank 100 → le 10.
	v = instant(t, db, `histogram_quantile(0.5, sum by (le) (rate(lat_ms_bucket[60s])))`, 60)
	if len(v) != 1 {
		t.Fatalf("fleet quantile returned %d points: %v", len(v), v)
	}
	approx(t, v[0].V, 10, 1e-9, "fleet p50")
}

// TestBinaryOps: the error-ratio / burn-rate shape the SLO rules use.
func TestBinaryOps(t *testing.T) {
	db := New()
	mustAppend(t, db, Labels{"__name__": "req_total", "outcome": "served"}, Sample{0, 0}, Sample{60, 90})
	mustAppend(t, db, Labels{"__name__": "req_total", "outcome": "failed"}, Sample{0, 0}, Sample{60, 10})

	// Error ratio: (total - served) / total = 10/100.
	expr := `(sum(rate(req_total[60s])) - sum(rate(req_total{outcome="served"}[60s]))) / sum(rate(req_total[60s]))`
	v := instant(t, db, expr, 60)
	if len(v) != 1 {
		t.Fatalf("ratio returned %d points: %v", len(v), v)
	}
	approx(t, v[0].V, 0.1, 1e-12, "error ratio")

	// Burn rate against a 1% budget = ratio / 0.01 = 10.
	v = instant(t, db, "("+expr+") / 0.01", 60)
	approx(t, v[0].V, 10, 1e-9, "burn rate")

	// Comparison filters: > 5 keeps the element, > 50 drops it.
	if v = instant(t, db, "("+expr+") / 0.01 > 5", 60); len(v) != 1 {
		t.Fatalf("burn > 5 should keep the element: %v", v)
	}
	if v = instant(t, db, "("+expr+") / 0.01 > 50", 60); len(v) != 0 {
		t.Fatalf("burn > 50 should drop the element: %v", v)
	}

	// 'and' intersects on label identity: both sides present → kept.
	if v = instant(t, db, "("+expr+") > 0.05 and ("+expr+") > 0.01", 60); len(v) != 1 {
		t.Fatalf("and should keep the element: %v", v)
	}
	if v = instant(t, db, "("+expr+") > 0.05 and ("+expr+") > 0.5", 60); len(v) != 0 {
		t.Fatalf("and with an empty side should drop: %v", v)
	}
}

// TestDivisionByZeroDropsElement: no traffic → rate 0 → the ratio element
// disappears instead of emitting Inf/NaN (so alert rules see "no data").
func TestDivisionByZeroDropsElement(t *testing.T) {
	db := New()
	mustAppend(t, db, Labels{"__name__": "req_total"}, Sample{0, 5}, Sample{60, 5})
	v := instant(t, db, `rate(req_total[60s]) / rate(req_total[60s])`, 60)
	if len(v) != 0 {
		t.Fatalf("0/0 should drop the element, got %v", v)
	}
}

// TestRangeQuery: step evaluation assembles per-instant vectors into series.
func TestRangeQuery(t *testing.T) {
	db := New()
	lbls := Labels{"__name__": "g", "instance": "a"}
	mustAppend(t, db, lbls, Sample{0, 1}, Sample{15, 2}, Sample{30, 3}, Sample{45, 4})
	out, err := db.Range(`g`, 0, 45, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || len(out[0].Samples) != 4 {
		t.Fatalf("range query shape wrong: %+v", out)
	}
	for i, want := range []float64{1, 2, 3, 4} {
		if out[0].Samples[i].V != want {
			t.Fatalf("step %d = %v, want %v", i, out[0].Samples[i].V, want)
		}
	}
	if _, err := db.Range(`g`, 0, 45, 0); err == nil {
		t.Fatal("step 0 should error")
	}
	if _, err := db.Range(`g`, 45, 0, 15); err == nil {
		t.Fatal("reversed range should error")
	}
}

// TestInstantStaleness: a selector only sees samples within the lookback.
func TestInstantStaleness(t *testing.T) {
	db := New()
	mustAppend(t, db, Labels{"__name__": "g"}, Sample{100, 7})
	if v := instant(t, db, `g`, 150); len(v) != 1 || v[0].V != 7 {
		t.Fatalf("within lookback: %v", v)
	}
	if v := instant(t, db, `g`, 100+301); len(v) != 0 {
		t.Fatalf("beyond lookback should be stale: %v", v)
	}
}

// TestParseErrors: malformed expressions are rejected with errors, not
// panics, and range selectors are confined to rate()/increase().
func TestParseErrors(t *testing.T) {
	for _, expr := range []string{
		"",
		"sum(",
		`m{key=}`,
		`m{key="v}`,
		"rate(m)",                  // missing range
		"m[5m]",                    // bare range selector
		"sum(m[5m])",               // range under aggregate
		"histogram_quantile(2, m)", // quantile out of range
		"rate(sum(m))",             // rate of non-selector
		"m ~ 5",                    // unknown operator
		"m + ",                     // dangling operator
	} {
		if _, err := ParseExpr(expr); err == nil {
			t.Errorf("ParseExpr(%q) should fail", expr)
		}
	}
	for _, expr := range []string{
		`rate(env2vec_serve_requests_total{outcome="served"}[5m])`,
		`slo:serve:burn_rate:5m > 14.4 and slo:serve:burn_rate:1h > 14.4`,
		`histogram_quantile(0.99, sum by (le) (rate(lat_ms_bucket[5m])))`,
		`avg by (a, b) (m) * 2 - 1`,
	} {
		if _, err := ParseExpr(expr); err != nil {
			t.Errorf("ParseExpr(%q): %v", expr, err)
		}
	}
}
