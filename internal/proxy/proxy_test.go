package proxy

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"env2vec/internal/envmeta"
	"env2vec/internal/quality"
)

// envKey renders the routing key the proxy derives for a test build —
// envmeta.Environment.String() of the tuple predictBody sends.
func envKey(build string) string {
	return envmeta.Environment{Testbed: "tb1", SUT: "fw", Testcase: "load", Build: build}.String()
}

// stub is a fake e2vserve backend: canned answers, per-path hit counters,
// and switches for the failure modes the proxy must survive.
type stub struct {
	srv                *httptest.Server
	predicts, observes atomic.Int64

	mu        sync.Mutex
	notReady  bool // 503 on /readyz
	refuse    int  // next N predicts answer 503
	delay     time.Duration
	qualityJS string // /quality body (200 when set, 503 otherwise)
}

func newStub(t *testing.T) *stub {
	t.Helper()
	st := &stub{}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		st.mu.Lock()
		notReady := st.notReady
		st.mu.Unlock()
		if notReady {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/predict", func(w http.ResponseWriter, r *http.Request) {
		st.mu.Lock()
		refuse, delay := st.refuse > 0, st.delay
		if st.refuse > 0 {
			st.refuse--
		}
		st.mu.Unlock()
		if delay > 0 {
			time.Sleep(delay)
		}
		if refuse {
			http.Error(w, "no model", http.StatusServiceUnavailable)
			return
		}
		st.predicts.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"prediction":42}`)
	})
	mux.HandleFunc("/observe", func(w http.ResponseWriter, r *http.Request) {
		st.observes.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"quality":{}}`)
	})
	mux.HandleFunc("/quality", func(w http.ResponseWriter, r *http.Request) {
		st.mu.Lock()
		js := st.qualityJS
		st.mu.Unlock()
		if js == "" {
			http.Error(w, "quality monitor disabled", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, js)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "# HELP demo_total d\n# TYPE demo_total counter\ndemo_total %d\n", st.predicts.Load())
	})
	mux.HandleFunc("/statz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"model":"test","model_version":1}`)
	})
	st.srv = httptest.NewServer(mux)
	t.Cleanup(st.srv.Close)
	return st
}

func newTestProxy(t *testing.T, cfg Config, stubs ...*stub) *Proxy {
	t.Helper()
	for _, s := range stubs {
		cfg.Backends = append(cfg.Backends, s.srv.URL)
	}
	cfg.RetryBackoff = time.Microsecond
	if cfg.FailAfter == 0 {
		cfg.FailAfter = 1
	}
	if cfg.RiseAfter == 0 {
		cfg.RiseAfter = 1
	}
	p := New(cfg)
	t.Cleanup(p.Close)
	return p
}

func predictBody(build string) []byte {
	return []byte(fmt.Sprintf(`{"cf":[1,2,3],"window":[50,51],"testbed":"tb1","sut":"fw","testcase":"load","build":%q}`, build))
}

func doPredict(t *testing.T, p *Proxy, build string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(predictBody(build)))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	p.ServeHTTP(w, req)
	return w
}

func TestAffinityRoutingIsStable(t *testing.T) {
	a, b := newStub(t), newStub(t)
	p := newTestProxy(t, Config{}, a, b)

	homes := map[string]string{}
	for i := 0; i < 48; i++ {
		build := fmt.Sprintf("B%d", i%16)
		w := doPredict(t, p, build, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("predict %s: status %d: %s", build, w.Code, w.Body.String())
		}
		backend := w.Header().Get("X-Backend")
		if backend == "" {
			t.Fatal("response missing X-Backend")
		}
		if prev, ok := homes[build]; ok && prev != backend {
			t.Fatalf("build %s moved from %s to %s with all backends healthy", build, prev, backend)
		}
		homes[build] = backend
	}
	if a.predicts.Load() == 0 || b.predicts.Load() == 0 {
		t.Fatalf("16 environments all hashed to one backend (a=%d b=%d) — ring not spreading",
			a.predicts.Load(), b.predicts.Load())
	}
}

func TestFailoverOnDeadBackend(t *testing.T) {
	a, b := newStub(t), newStub(t)
	p := newTestProxy(t, Config{}, a, b)

	// Find a build homed on a, then kill a.
	var build string
	for i := 0; ; i++ {
		build = fmt.Sprintf("B%d", i)
		if p.Home(envKey(build)) == p.Backends()[0] {
			break
		}
	}
	a.srv.Close()

	w := doPredict(t, p, build, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("failover predict: status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Backend"); got != p.Backends()[1].Name() {
		t.Fatalf("served by %s, want survivor %s", got, p.Backends()[1].Name())
	}
	if got := p.failovers.Value(); got < 1 {
		t.Fatalf("failovers counter = %d, want >= 1", got)
	}
	// The transport error marked a dead (FailAfter=1): next request skips it.
	if p.Backends()[0].Alive() {
		t.Fatal("dead backend still marked alive after a failed forward")
	}
	w = doPredict(t, p, build, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("post-mark predict: status %d", w.Code)
	}
}

func TestRetryableStatusFailsOver(t *testing.T) {
	a, b := newStub(t), newStub(t)
	p := newTestProxy(t, Config{}, a, b)
	var build string
	for i := 0; ; i++ {
		build = fmt.Sprintf("B%d", i)
		if p.Home(envKey(build)) == p.Backends()[0] {
			break
		}
	}
	a.mu.Lock()
	a.refuse = 1 // one 503, then healthy again
	a.mu.Unlock()
	w := doPredict(t, p, build, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 via failover past the 503", w.Code)
	}
	if got := w.Header().Get("X-Backend"); got != p.Backends()[1].Name() {
		t.Fatalf("served by %s, want failover target %s", got, p.Backends()[1].Name())
	}
}

func TestAllBackendsRefusing503(t *testing.T) {
	a, b := newStub(t), newStub(t)
	p := newTestProxy(t, Config{}, a, b)
	a.mu.Lock()
	a.refuse = 10
	a.mu.Unlock()
	b.mu.Lock()
	b.refuse = 10
	b.mu.Unlock()
	w := doPredict(t, p, "B1", nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 when every candidate refuses", w.Code)
	}
}

func TestObserveSticky(t *testing.T) {
	a, b := newStub(t), newStub(t)
	p := newTestProxy(t, Config{}, a, b)

	w := doPredict(t, p, "B3", map[string]string{"X-Request-ID": "rid-sticky-1"})
	if w.Code != http.StatusOK {
		t.Fatalf("predict: status %d", w.Code)
	}
	served := w.Header().Get("X-Backend")

	obsReq := httptest.NewRequest(http.MethodPost, "/observe", strings.NewReader(`{"request_id":"rid-sticky-1","actual":49.5}`))
	ow := httptest.NewRecorder()
	p.ServeHTTP(ow, obsReq)
	if ow.Code != http.StatusOK {
		t.Fatalf("observe: status %d: %s", ow.Code, ow.Body.String())
	}
	if got := ow.Header().Get("X-Backend"); got != served {
		t.Fatalf("observe landed on %s, prediction was served by %s", got, served)
	}
	// A second observe for the same id finds no sticky entry: 404, matching
	// the backend's own expired-id answer.
	ow2 := httptest.NewRecorder()
	p.ServeHTTP(ow2, httptest.NewRequest(http.MethodPost, "/observe", strings.NewReader(`{"request_id":"rid-sticky-1"}`)))
	if ow2.Code != http.StatusNotFound {
		t.Fatalf("replayed observe: status %d, want 404", ow2.Code)
	}
}

func TestShed429WhenSaturated(t *testing.T) {
	a := newStub(t)
	a.mu.Lock()
	a.delay = 300 * time.Millisecond
	a.mu.Unlock()
	p := newTestProxy(t, Config{MaxInflight: 1}, a)

	started := make(chan struct{})
	go func() {
		close(started)
		doPredict(t, p, "B1", nil)
	}()
	<-started
	// Wait until the first request is actually in flight.
	deadline := time.Now().Add(2 * time.Second)
	for p.totalInflight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never went in flight")
		}
		time.Sleep(time.Millisecond)
	}
	w := doPredict(t, p, "B1", nil)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 at MaxInflight", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
}

// TestHealthProbeReadsReadyzOnly: readiness is GET /readyz and nothing else.
// A backend answering 404 there leaves rotation even though its /healthz
// says ok — there is no fallback to /healthz.
func TestHealthProbeReadsReadyzOnly(t *testing.T) {
	healthzOnly := http.NewServeMux() // /readyz is a 404
	healthzOnly.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
	a := httptest.NewServer(healthzOnly)
	defer a.Close()
	b := newStub(t)
	b.mu.Lock()
	b.notReady = true // saturated: /readyz 503
	b.mu.Unlock()
	p := newTestProxy(t, Config{Backends: []string{a.URL}}, b)
	p.Probe()
	if p.Backends()[0].Alive() {
		t.Fatal("backend answering 404 on /readyz should leave rotation")
	}
	if p.Backends()[1].Alive() {
		t.Fatal("backend reporting 503 on /readyz should leave rotation")
	}
	// Readiness recovers -> rejoin on the next probe pass.
	b.mu.Lock()
	b.notReady = false
	b.mu.Unlock()
	p.Probe()
	if !p.Backends()[1].Alive() {
		t.Fatal("recovered backend did not rejoin")
	}
}

func TestHealthzReflectsPool(t *testing.T) {
	a := newStub(t)
	p := newTestProxy(t, Config{}, a)
	w := httptest.NewRecorder()
	p.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("healthz with live pool: %d", w.Code)
	}
	a.srv.Close()
	p.Probe()
	w = httptest.NewRecorder()
	p.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with dead pool: %d, want 503", w.Code)
	}
}

func TestFleetMetricsAggregation(t *testing.T) {
	a, b := newStub(t), newStub(t)
	p := newTestProxy(t, Config{}, a, b)
	doPredict(t, p, "B1", nil)

	w := httptest.NewRecorder()
	p.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := w.Body.String()
	if !strings.Contains(body, "env2vec_proxy_requests_total") {
		t.Fatal("aggregated page missing the proxy's own metrics")
	}
	for _, s := range []*stub{a, b} {
		name := strings.TrimPrefix(s.srv.URL, "http://")
		if !strings.Contains(body, fmt.Sprintf("demo_total{backend=%q}", name)) {
			t.Fatalf("aggregated page missing backend %s's series:\n%s", name, body)
		}
	}
}

func TestFleetMetricsSkipsDeadAndReportsScrapeFailures(t *testing.T) {
	a, b := newStub(t), newStub(t)
	p := newTestProxy(t, Config{}, a, b)
	deadName := strings.TrimPrefix(a.srv.URL, "http://")
	a.srv.Close()
	p.Probe()

	w := httptest.NewRecorder()
	p.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := w.Body.String()
	if strings.Contains(body, fmt.Sprintf("demo_total{backend=%q}", deadName)) {
		t.Fatal("dead backend's series still in the fleet page")
	}
	liveName := strings.TrimPrefix(b.srv.URL, "http://")
	if !strings.Contains(body, fmt.Sprintf("demo_total{backend=%q}", liveName)) {
		t.Fatal("live backend's series missing from the fleet page")
	}
}

func qualityJSON(t *testing.T, envs []quality.EnvSnapshot, observations uint64) string {
	t.Helper()
	js, err := json.Marshal(quality.Snapshot{Environments: envs, Observations: observations, Exceedances: 1})
	if err != nil {
		t.Fatal(err)
	}
	return string(js)
}

func TestFleetQualityUnion(t *testing.T) {
	a, b := newStub(t), newStub(t)
	// Both backends report env e1 (failover overlap): the union must keep
	// the fresher entry. e2 lives only on a.
	a.mu.Lock()
	a.qualityJS = qualityJSON(t, []quality.EnvSnapshot{
		{Env: "e1", Samples: 10, LastSeen: 100},
		{Env: "e2", Samples: 3, LastSeen: 50},
	}, 13)
	a.mu.Unlock()
	b.mu.Lock()
	b.qualityJS = qualityJSON(t, []quality.EnvSnapshot{
		{Env: "e1", Samples: 25, LastSeen: 200},
	}, 25)
	b.mu.Unlock()
	p := newTestProxy(t, Config{}, a, b)

	w := httptest.NewRecorder()
	p.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/quality", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("fleet quality: status %d", w.Code)
	}
	var fq FleetQuality
	if err := json.NewDecoder(w.Body).Decode(&fq); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(fq.Backends) != 2 {
		t.Fatalf("got %d backend entries, want 2", len(fq.Backends))
	}
	if len(fq.Environments) != 2 {
		t.Fatalf("union has %d environments, want 2 (e1 deduped): %+v", len(fq.Environments), fq.Environments)
	}
	bName := strings.TrimPrefix(b.srv.URL, "http://")
	for _, es := range fq.Environments {
		if es.Env == "e1" {
			if es.Backend != bName || es.Samples != 25 {
				t.Fatalf("e1 union kept %+v, want the fresher entry from %s", es, bName)
			}
		}
	}
	if fq.Totals.Observations != 38 || fq.Totals.Exceedances != 2 {
		t.Fatalf("totals %+v, want observations=38 exceedances=2", fq.Totals)
	}
}

func TestFleetQualityScrapeFailureIsReportedNotFatal(t *testing.T) {
	a, b := newStub(t), newStub(t)
	a.mu.Lock()
	a.qualityJS = qualityJSON(t, []quality.EnvSnapshot{{Env: "e1", LastSeen: 1}}, 1)
	a.mu.Unlock()
	// b has no quality monitor: its scrape 503s but the fleet page survives.
	p := newTestProxy(t, Config{}, a, b)
	w := httptest.NewRecorder()
	p.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/quality", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("fleet quality: status %d", w.Code)
	}
	var fq FleetQuality
	if err := json.NewDecoder(w.Body).Decode(&fq); err != nil {
		t.Fatal(err)
	}
	var withErr int
	for _, bq := range fq.Backends {
		if bq.Error != "" {
			withErr++
		}
	}
	if withErr != 1 {
		t.Fatalf("want exactly one backend scrape error, got %d: %+v", withErr, fq.Backends)
	}
	if len(fq.Environments) != 1 {
		t.Fatalf("healthy backend's environments missing: %+v", fq.Environments)
	}
}

func TestStatzForwardsToLiveBackend(t *testing.T) {
	a, b := newStub(t), newStub(t)
	p := newTestProxy(t, Config{}, a, b)
	a.srv.Close()
	p.Probe()
	w := httptest.NewRecorder()
	p.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/statz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("statz: status %d", w.Code)
	}
	if !strings.Contains(w.Body.String(), `"model":"test"`) {
		t.Fatalf("statz body not forwarded: %s", w.Body.String())
	}
}

func TestFleetStateEndpoint(t *testing.T) {
	a, b := newStub(t), newStub(t)
	p := newTestProxy(t, Config{}, a, b)
	doPredict(t, p, "B1", nil)
	w := httptest.NewRecorder()
	p.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/fleet", nil))
	var st FleetState
	if err := json.NewDecoder(w.Body).Decode(&st); err != nil {
		t.Fatalf("decode fleet: %v", err)
	}
	if st.Live != 2 || len(st.Backends) != 2 || st.Served != 1 {
		t.Fatalf("fleet state %+v, want live=2 backends=2 served=1", st)
	}
}

func TestStickyMapBounded(t *testing.T) {
	a := newStub(t)
	p := newTestProxy(t, Config{PendingCap: 4}, a)
	for i := 0; i < 10; i++ {
		doPredict(t, p, "B1", map[string]string{"X-Request-ID": fmt.Sprintf("rid-%d", i)})
	}
	if n, _ := p.sticky.Size(); n > 4 {
		t.Fatalf("sticky map grew to %d entries, cap is 4", n)
	}
	// Oldest ids evicted, newest retained.
	if _, ok := p.sticky.Take("rid-9"); !ok {
		t.Fatal("newest sticky entry evicted")
	}
	if _, ok := p.sticky.Take("rid-0"); ok {
		t.Fatal("oldest sticky entry survived past the cap")
	}
}

// TestStickyStaysBoundedWhenObserved: the sticky map's twin of serve's
// TestPendingStaysBoundedWhenObserved. Observed promptly, the map is empty
// most of the time; at PendingCap 16, 5 000 × (predict, observe) used to
// leave 5 000 ids queued for an eviction that never ran. Observed, evicted
// and re-predicted ids behave as they always did.
func TestStickyStaysBoundedWhenObserved(t *testing.T) {
	const pendingCap = 16
	a, b := newStub(t), newStub(t)
	p := newTestProxy(t, Config{PendingCap: pendingCap}, a, b)
	predict := func(id, build string) string {
		t.Helper()
		w := doPredict(t, p, build, map[string]string{"X-Request-ID": id})
		if w.Code != http.StatusOK {
			t.Fatalf("predict %s: status %d", id, w.Code)
		}
		return w.Header().Get("X-Backend")
	}
	observe := func(id string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		p.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/observe", strings.NewReader(fmt.Sprintf(`{"request_id":%q,"actual":49.5}`, id))))
		return w
	}
	for i := 0; i < 5000; i++ {
		id := fmt.Sprintf("%016x", i)
		if served, w := predict(id, "B1"), observe(id); w.Code != http.StatusOK || w.Header().Get("X-Backend") != served {
			t.Fatalf("request %d: observe answered %d from %q, prediction came from %q", i, w.Code, w.Header().Get("X-Backend"), served)
		}
	}
	if entries, slots := p.sticky.Size(); entries != 0 || slots > pendingCap {
		t.Fatalf("after 5000 observed predictions: %d sticky entries, %d order slots, PendingCap %d", entries, slots, pendingCap)
	}

	builds := buildsHomedOn(t, p)
	predict("kept", builds[0])
	predict("again", builds[0])
	last := predict("again", builds[1]) // the same id served twice: the last write wins
	if w := observe("again"); w.Code != http.StatusOK || w.Header().Get("X-Backend") != last {
		t.Fatalf("re-predicted id observed at %q (status %d), last served by %q", w.Header().Get("X-Backend"), w.Code, last)
	}
	for i := 0; i < pendingCap-1; i++ {
		predict(fmt.Sprintf("fill-%d", i), "B1")
	}
	if w := observe("kept"); w.Code != http.StatusNotFound {
		t.Fatalf("observe after %d later predictions: status %d, want 404 (evicted)", pendingCap+1, w.Code)
	}
	if w := observe("fill-0"); w.Code != http.StatusOK {
		t.Fatalf("observe of a prediction inside the bound: status %d", w.Code)
	}
	if w := observe("fill-0"); w.Code != http.StatusNotFound {
		t.Fatalf("second observe of one prediction: status %d, want 404", w.Code)
	}
}
