package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"env2vec/internal/alarmstore"
	"env2vec/internal/quality"
)

// postJSON round-trips one JSON request against the test server.
func postJSON(t *testing.T, url string, in, out any) int {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestQualityLoopInlineActuals is the end-to-end drift loop with ground
// truth arriving inline: a sustained error shift on one environment must be
// detected within the window, raise an attributed alarm that lands in the
// alarm store, increment env2vec_quality_alarms_total, and show up in the
// /quality report.
func TestQualityLoopInlineActuals(t *testing.T) {
	store, err := alarmstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	storeSrv := httptest.NewServer(&alarmstore.Handler{Store: store})
	defer storeSrv.Close()
	b := testBundle(7, 1)
	b.Baseline = &quality.Baseline{Mu: 0, Sigma: 1, Samples: 200}
	s := New(Config{
		MaxBatch: 1, QueueDepth: 64, Workers: 1,
		Quality:   &quality.Config{Window: 8, MinSamples: 4, Cooldown: 4},
		AlarmSink: quality.HTTPSink{URL: storeSrv.URL},
	})
	s.SetBundle(b)
	srv := httptest.NewServer(s)
	defer srv.Close()

	rng := rand.New(rand.NewSource(21))
	base := randomRequest(rng)
	want := directPredict(b, base)

	// Inject a constant +20 error shift (alternating sign so the exceed-rate
	// criterion, not the mean-shift one, is what fires).
	var out Response
	for i := 0; i < 8; i++ {
		r := *base
		actual := want - 20
		if i%2 == 1 {
			actual = want + 20
		}
		r.Actual = &actual
		if code := postJSON(t, srv.URL+"/predict", &r, &out); code != http.StatusOK {
			t.Fatalf("predict %d: status %d", i, code)
		}
		if out.Quality == nil {
			t.Fatalf("predict %d: no quality block with inline actual", i)
		}
		if !out.Quality.Exceeded {
			t.Fatalf("predict %d: 20-point error not marked exceeding: %+v", i, out.Quality)
		}
	}
	if !out.Quality.Drift || out.Quality.DriftReason != "exceed-rate" {
		t.Fatalf("sustained exceedance not reported as drift: %+v", out.Quality)
	}
	if got := s.monitor.Snapshot().AlarmsEmitted; got < 1 {
		t.Fatalf("no alarm emitted after sustained drift")
	}

	// The /quality report names the affected environment.
	resp, err := http.Get(srv.URL + "/quality")
	if err != nil {
		t.Fatal(err)
	}
	var snap quality.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(snap.Environments) != 1 {
		t.Fatalf("quality report has %d environments, want 1", len(snap.Environments))
	}
	es := snap.Environments[0]
	if es.Environment.Testbed != base.Testbed || es.Environment.Build != base.Build {
		t.Fatalf("wrong environment in report: %+v", es)
	}
	if !es.Drift || es.Alarms < 1 || es.LastAlarm == nil {
		t.Fatalf("report misses the drift: %+v", es)
	}

	// The alarm counter is on the /metrics page.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(page), "env2vec_quality_alarms_total") {
		t.Fatalf("alarm counter missing from /metrics")
	}

	// Close drains the async pusher; the alarm must be in the store with
	// environment and time-interval attribution.
	s.Close()
	got := store.Find(alarmstore.Query{Testbed: base.Testbed})
	if len(got) < 1 {
		t.Fatalf("no alarm reached the store")
	}
	a := got[0].Alarm
	if !strings.HasPrefix(a.Detector, "quality:") {
		t.Fatalf("alarm detector %q lacks quality: prefix", a.Detector)
	}
	if a.SUT != base.SUT || a.Testcase != base.Testcase || a.Build != base.Build {
		t.Fatalf("alarm attribution wrong: %+v", a)
	}
	if a.StartTime == 0 || a.EndTime < a.StartTime {
		t.Fatalf("alarm time interval wrong: %+v", a)
	}
}

// TestObserveClosesTheLoop exercises the deferred-ground-truth path over
// HTTP end to end: /predict without an actual, then POST /observe with the
// request id, drifting errors, and an alarm delivered to an alarm store
// reached through its own HTTP API.
func TestObserveClosesTheLoop(t *testing.T) {
	remote, err := alarmstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	storeSrv := httptest.NewServer(&alarmstore.Handler{Store: remote})
	defer storeSrv.Close()

	b := testBundle(9, 1)
	b.Baseline = &quality.Baseline{Mu: 0, Sigma: 1, Samples: 200}
	s := New(Config{
		MaxBatch: 1, QueueDepth: 64, Workers: 1,
		Quality:   &quality.Config{Window: 8, MinSamples: 4, Cooldown: 4},
		AlarmSink: quality.HTTPSink{URL: storeSrv.URL},
	})
	s.SetBundle(b)
	srv := httptest.NewServer(s)
	defer srv.Close()

	rng := rand.New(rand.NewSource(33))
	base := randomRequest(rng)

	for i := 0; i < 8; i++ {
		r := *base
		var pred jsonReply
		if code := postJSON(t, srv.URL+"/predict", &r, &pred); code != http.StatusOK {
			t.Fatalf("predict %d: status %d", i, code)
		}
		if pred.Quality != nil {
			t.Fatalf("predict %d: quality verdict without ground truth", i)
		}
		if pred.Trace == nil || pred.Trace.RequestID == "" {
			t.Fatalf("predict %d: no request id to observe against", i)
		}
		actual := pred.Prediction - 20
		if i%2 == 1 {
			actual = pred.Prediction + 20
		}
		var obs ObserveResponse
		code := postJSON(t, srv.URL+"/observe", &ObserveRequest{
			RequestID: pred.Trace.RequestID, Actual: actual, At: int64(1000 + i),
		}, &obs)
		if code != http.StatusOK {
			t.Fatalf("observe %d: status %d", i, code)
		}
		if !obs.Quality.Exceeded {
			t.Fatalf("observe %d: 20-point error not exceeding: %+v", i, obs.Quality)
		}
		// Observing the same id twice must 404: the entry was consumed.
		if code := postJSON(t, srv.URL+"/observe", &ObserveRequest{RequestID: pred.Trace.RequestID, Actual: actual}, nil); code != http.StatusNotFound {
			t.Fatalf("observe %d replay: status %d, want 404", i, code)
		}
	}

	// Unknown ids and bad payloads come back as JSON errors.
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/observe", strings.NewReader(`{"request_id":"nope","actual":1}`))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var errBody map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&errBody); err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || errBody["error"] == "" {
		t.Fatalf("unknown id: %d %v", resp.StatusCode, errBody)
	}

	// Close drains delivery; the drift alarm crossed the HTTP sink into the
	// remote store with attribution intact.
	s.Close()
	got := remote.Find(alarmstore.Query{Testbed: base.Testbed})
	if len(got) < 1 {
		t.Fatalf("no alarm reached the remote store")
	}
	a := got[0].Alarm
	if a.Detector != "quality:exceed-rate" || a.Build != base.Build {
		t.Fatalf("remote alarm wrong: %+v", a)
	}
	if a.StartTime < 1000 || a.EndTime < a.StartTime {
		t.Fatalf("alarm interval lost over HTTP: start=%d end=%d", a.StartTime, a.EndTime)
	}
}

// TestQualityEndpointsDisabled: without a quality config the endpoints
// refuse cleanly instead of panicking on a nil monitor.
func TestQualityEndpointsDisabled(t *testing.T) {
	s := New(Config{MaxBatch: 1, QueueDepth: 8, Workers: 1})
	defer s.Close()
	s.SetBundle(testBundle(1, 1))
	srv := httptest.NewServer(s)
	defer srv.Close()

	if code := postJSON(t, srv.URL+"/observe", &ObserveRequest{RequestID: "x", Actual: 1}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("observe on disabled monitor: %d", code)
	}
	resp, err := http.Get(srv.URL + "/quality")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("quality on disabled monitor: %d", resp.StatusCode)
	}
}

// TestPendingEviction: the pending map stays bounded, evicting oldest ids.
func TestPendingEviction(t *testing.T) {
	s := New(Config{
		MaxBatch: 4, QueueDepth: 64, Workers: 1,
		Quality: &quality.Config{}, PendingCap: 4,
	})
	defer s.Close()
	s.SetBundle(testBundle(1, 1))

	rng := rand.New(rand.NewSource(17))
	var ids []string
	for i := 0; i < 8; i++ {
		req := randomRequest(rng)
		if _, code, err := s.Do(req); err != nil || code != http.StatusOK {
			t.Fatalf("request %d: %d %v", i, code, err)
		}
		ids = append(ids, req.RequestID)
	}
	// The four oldest ids are evicted, the four newest observable.
	for i, id := range ids {
		_, ok := s.pending.Take(id)
		if want := i >= 4; ok != want {
			t.Fatalf("pending[%d] present=%v, want %v", i, ok, want)
		}
	}
}

// TestPendingStaysBoundedWhenObserved: in the closed quality loop — predict,
// then observe promptly — the pending map is empty most of the time, and
// what it keeps to order its evictions must stay bounded all the same. At
// PendingCap 16, 5 000 × (Do, observe) used to leave 5 000 ids queued for
// an eviction that never ran. Observed, evicted and re-predicted ids behave
// as they always did.
func TestPendingStaysBoundedWhenObserved(t *testing.T) {
	const pendingCap = 16
	s := New(Config{
		MaxBatch: 4, QueueDepth: 64, Workers: 1,
		Quality: &quality.Config{}, PendingCap: pendingCap,
	})
	defer s.Close()
	s.SetBundle(testBundle(1, 1))
	srv := httptest.NewServer(s)
	defer srv.Close()

	rng := rand.New(rand.NewSource(19))
	req := randomRequest(rng)
	predict := func(id string) float64 {
		t.Helper()
		req.RequestID = id
		resp, code, err := s.Do(req)
		if err != nil || code != http.StatusOK {
			t.Fatalf("request %s: %d %v", id, code, err)
		}
		return resp.Prediction
	}
	for i := 0; i < 5000; i++ {
		id := fmt.Sprintf("%016x", i)
		pred := predict(id)
		if p, ok := s.pending.Take(id); !ok || p.pred != pred {
			t.Fatalf("request %d: pending prediction %+v, %v", i, p, ok)
		}
	}
	if entries, slots := s.pending.Size(); entries != 0 || slots > pendingCap {
		t.Fatalf("after 5000 observed predictions: %d pending, %d order slots, PendingCap %d", entries, slots, pendingCap)
	}

	observe := func(id string) int {
		return postJSON(t, srv.URL+"/observe", &ObserveRequest{RequestID: id, Actual: 50}, nil)
	}
	predict("kept")
	predict("again")
	req.CF[0]++
	last := predict("again") // the same id predicted twice: the last write wins
	if p, ok := s.pending.Take("again"); !ok || p.pred != last {
		t.Fatalf("re-predicted id holds %+v, %v; want the last prediction %v", p, ok, last)
	}
	for i := 0; i < pendingCap-1; i++ {
		predict(fmt.Sprintf("fill-%d", i))
	}
	if code := observe("kept"); code != http.StatusNotFound {
		t.Fatalf("observe after %d later predictions: status %d, want 404 (evicted)", pendingCap+1, code)
	}
	if code := observe("fill-0"); code != http.StatusOK {
		t.Fatalf("observe of a prediction inside the bound: status %d", code)
	}
	if code := observe("fill-0"); code != http.StatusNotFound {
		t.Fatalf("second observe of one prediction: status %d, want 404", code)
	}
}
