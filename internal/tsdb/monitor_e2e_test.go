// External test package: the monitoring-plane round trip below drives a
// live serve.Server behind an e2vproxy front, scrapes it with the tsdb
// scraper, evaluates the built-in SLO burn-rate rules, and asserts the
// firing alert lands in a real alarmstore over HTTP — the full loop the
// issue calls for. It lives outside package tsdb because proxy and
// serve import tsdb's siblings.
package tsdb_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"env2vec/internal/alarmstore"
	"env2vec/internal/proxy"
	"env2vec/internal/quality"
	"env2vec/internal/tsdb"
)

// TestMonitoringPlaneBurnRateE2E: error injection (backend torn down)
// drives the availability burn-rate rule pending → firing; the alarm
// arrives in the alarm store with source=slo; ALERTS series and the
// /alerts endpoint reflect the state.
func TestMonitoringPlaneBurnRateE2E(t *testing.T) {
	backend := newScrapeBackend(t, 7)
	p, front := newMonitorProxy(t, backend.URL)
	defer p.Close()

	// Real alarm store behind HTTP, as in production: tsdbd pushes via
	// quality.HTTPSink → POST /alarms.
	store, err := alarmstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	alarmSrv := httptest.NewServer(&alarmstore.Handler{Store: store})
	defer alarmSrv.Close()

	sd := filepath.Join(t.TempDir(), "sd.json")
	proxyHost := strings.TrimPrefix(front.URL, "http://")
	if err := tsdb.WriteSDConfig(sd, []tsdb.SDEntry{{Targets: []string{proxyHost}}}); err != nil {
		t.Fatal(err)
	}

	// Deterministic time: one scrape+eval cycle per 15 fake seconds.
	now := int64(1_000_000)
	db := tsdb.New()
	db.SetRetention(8 * 3600)
	sc := tsdb.NewScraper(db, sd, time.Second)
	sc.Now = func() int64 { return now }
	rules := tsdb.NewRules(db)
	rules.Now = func() int64 { return now }
	rules.Sink = quality.HTTPSink{URL: alarmSrv.URL}
	if err := rules.Load(tsdb.DefaultSLORules(0.99, 250)); err != nil {
		t.Fatal(err)
	}
	handler := &tsdb.Handler{DB: db, Rules: rules, Now: func() int64 { return now }}
	tsdbSrv := httptest.NewServer(handler)
	defer tsdbSrv.Close()

	cycle := func(requests int) {
		t.Helper()
		for i := 0; i < requests; i++ {
			body := `{"cf":[1,2,3],"window":[50,51],"testbed":"tb1","sut":"fw","testcase":"load","build":"B1"}`
			resp, err := http.Post(front.URL+"/predict", "application/json", bytes.NewReader([]byte(body)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
		if _, err := sc.ScrapeOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
		rules.EvalOnce()
		now += 15
	}

	// Phase 1 — healthy traffic. No alert may appear.
	for i := 0; i < 10; i++ {
		cycle(4)
	}
	for _, a := range rules.ActiveAlerts() {
		if strings.Contains(a.Name, "Availability") {
			t.Fatalf("availability alert active during healthy phase: %+v", a)
		}
	}

	// Phase 2 — kill the only backend: every proxied request now fails,
	// growing env2vec_proxy_requests_total{outcome="failed"}.
	backend.Close()
	for i := 0; i < 3; i++ {
		cycle(4)
	}
	var fast *tsdb.ActiveAlert
	for _, a := range rules.ActiveAlerts() {
		if a.Name == "ServeAvailabilityFastBurn" {
			a := a
			fast = &a
		}
	}
	if fast == nil {
		t.Fatalf("fast burn not pending after error injection; alerts: %+v", rules.ActiveAlerts())
	}
	if fast.State != tsdb.StatePending {
		t.Fatalf("fast burn state %q, want pending (For not yet elapsed)", fast.State)
	}
	if len(store.Find(alarmstore.Query{})) != 0 {
		t.Fatal("pending alert must not reach the alarm store")
	}

	// Keep failing past the 2m For window → firing, alarm pushed.
	for i := 0; i < 10; i++ {
		cycle(4)
	}
	fast = nil
	for _, a := range rules.ActiveAlerts() {
		if a.Name == "ServeAvailabilityFastBurn" {
			a := a
			fast = &a
		}
	}
	if fast == nil || fast.State != tsdb.StateFiring {
		t.Fatalf("fast burn not firing; alerts: %+v", rules.ActiveAlerts())
	}

	// The alarm landed over HTTP with source=slo and the rule name.
	recs := store.Find(alarmstore.Query{Source: "slo"})
	if len(recs) == 0 {
		t.Fatalf("no slo alarms in store (have %d total)", len(store.Find(alarmstore.Query{})))
	}
	found := false
	for _, rec := range recs {
		if rec.Alarm.Detector == "ServeAvailabilityFastBurn" {
			found = true
			if rec.Alarm.Source != "slo" {
				t.Fatalf("alarm source %q", rec.Alarm.Source)
			}
		}
	}
	if !found {
		t.Fatalf("fast burn alarm missing from store: %+v", recs)
	}
	if len(store.Find(alarmstore.Query{Source: "drift"})) != 0 {
		t.Fatal("slo alarms must not be classified as drift")
	}

	// The synthetic ALERTS series tracked both states.
	for _, state := range []string{tsdb.StatePending, tsdb.StateFiring} {
		s := db.Query(tsdb.Labels{"__name__": "ALERTS", "alertname": "ServeAvailabilityFastBurn", "state": state}, 0, now)
		if len(s) == 0 {
			t.Fatalf("no ALERTS series for state %s", state)
		}
	}

	// GET /alerts reports the firing alert with its annotation.
	resp, err := http.Get(tsdbSrv.URL + "/alerts")
	if err != nil {
		t.Fatal(err)
	}
	var alertsPayload struct {
		Data []tsdb.ActiveAlert `json:"data"`
	}
	err = json.NewDecoder(resp.Body).Decode(&alertsPayload)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	gotFiring := false
	for _, a := range alertsPayload.Data {
		if a.Name == "ServeAvailabilityFastBurn" && a.State == tsdb.StateFiring {
			gotFiring = true
			if a.Annotations["summary"] == "" {
				t.Fatal("firing alert served without its annotations")
			}
		}
	}
	if !gotFiring {
		t.Fatalf("/alerts missing the firing alert: %+v", alertsPayload.Data)
	}

	// Age the healthy phase out of the 5m window entirely, so the error
	// ratio is exactly 1 and the burn rate is hand-computable.
	for i := 0; i < 12; i++ {
		cycle(4)
	}

	// GET /query confirms the recorded burn rate: with every request in
	// the window failed, error ratio = 1 and burn rate = 1/0.01 = 100.
	resp, err = http.Get(tsdbSrv.URL + "/query?expr=" + "slo:serve:burn_rate:5m")
	if err != nil {
		t.Fatal(err)
	}
	var queryPayload struct {
		Data []struct {
			Value float64 `json:"value"`
		} `json:"data"`
	}
	err = json.NewDecoder(resp.Body).Decode(&queryPayload)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(queryPayload.Data) != 1 {
		t.Fatalf("/query burn rate: %+v", queryPayload.Data)
	}
	if v := queryPayload.Data[0].Value; v < 90 || v > 110 {
		t.Fatalf("burn rate %v, want ~100 (all traffic failing, 1%% budget)", v)
	}

	// The dashboard renders the firing alert.
	resp, err = http.Get(tsdbSrv.URL + "/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := readAll(resp)
	if !strings.Contains(page, "ServeAvailabilityFastBurn") || !strings.Contains(page, "state-firing") {
		t.Fatal("dashboard missing the firing alert")
	}
}

// TestQueryHTTPFixtures: GET /query returns rate() and
// histogram_quantile() values matching hand-computed fixtures within
// tolerance, over real HTTP.
func TestQueryHTTPFixtures(t *testing.T) {
	db := tsdb.New()
	// Counter with a mid-window reset: 0:0 15:30 30:60 45:10 60:40 →
	// adjusted cumulative 0,30,60,70,100 → delta 100 over 60s.
	for _, s := range []struct {
		ts int64
		v  float64
	}{{0, 0}, {15, 30}, {30, 60}, {45, 10}, {60, 40}} {
		if err := db.Append(tsdb.Labels{"__name__": "reqs_total"}, s.ts, s.v); err != nil {
			t.Fatal(err)
		}
	}
	// Histogram: cumulative buckets 10:40 20:70 50:95 +Inf:100.
	for _, b := range []struct {
		le string
		v  float64
	}{{"10", 40}, {"20", 70}, {"50", 95}, {"+Inf", 100}} {
		if err := db.Append(tsdb.Labels{"__name__": "lat_bucket", "le": b.le}, 60, b.v); err != nil {
			t.Fatal(err)
		}
	}
	h := &tsdb.Handler{DB: db, Now: func() int64 { return 60 }}
	srv := httptest.NewServer(h)
	defer srv.Close()

	query := func(expr string) float64 {
		t.Helper()
		resp, err := http.Get(srv.URL + "/query?expr=" + strings.ReplaceAll(expr, " ", "%20"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %q: status %d", expr, resp.StatusCode)
		}
		var payload struct {
			Data []struct {
				Value float64 `json:"value"`
			} `json:"data"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
			t.Fatal(err)
		}
		if len(payload.Data) != 1 {
			t.Fatalf("query %q: %d points", expr, len(payload.Data))
		}
		return payload.Data[0].Value
	}

	const tol = 1e-9
	if v := query("rate(reqs_total[60s])"); math.Abs(v-100.0/60) > tol {
		t.Fatalf("rate = %v, want %v", v, 100.0/60)
	}
	if v := query("increase(reqs_total[1m])"); math.Abs(v-100) > tol {
		t.Fatalf("increase = %v, want 100", v)
	}
	// p50: rank 50 in (10,20] → 10 + 10*(50-40)/30.
	if v := query("histogram_quantile(0.5, lat_bucket)"); math.Abs(v-(10+10.0*10/30)) > tol {
		t.Fatalf("p50 = %v, want %v", v, 10+10.0*10/30)
	}
	// p99 beyond the last finite bucket clamps to its bound.
	if v := query("histogram_quantile(0.99, lat_bucket)"); math.Abs(v-50) > tol {
		t.Fatalf("p99 = %v, want 50", v)
	}

	// Range form returns step-aligned series.
	resp, err := http.Get(srv.URL + "/query?expr=reqs_total&from=0&to=60&step=15")
	if err != nil {
		t.Fatal(err)
	}
	var rangePayload struct {
		Data []struct {
			Samples []tsdb.Sample `json:"Samples"`
		} `json:"data"`
	}
	err = json.NewDecoder(resp.Body).Decode(&rangePayload)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(rangePayload.Data) != 1 || len(rangePayload.Data[0].Samples) != 5 {
		t.Fatalf("range query shape: %+v", rangePayload.Data)
	}
}

func readAll(resp *http.Response) (string, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.String(), err
}

// newMonitorProxy builds a single-backend proxy front for error
// injection: closing the backend makes every proxied request count as
// outcome=failed.
func newMonitorProxy(t *testing.T, backendURL string) (*proxy.Proxy, *httptest.Server) {
	t.Helper()
	p := proxy.New(proxy.Config{Backends: []string{backendURL}, RetryBackoff: time.Millisecond})
	front := httptest.NewServer(p)
	t.Cleanup(front.Close)
	return p, front
}
