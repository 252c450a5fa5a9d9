package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"env2vec/internal/anomaly"
	"env2vec/internal/core"
	"env2vec/internal/dataset"
	"env2vec/internal/envmeta"
	"env2vec/internal/nn"
	"env2vec/internal/obs"
	"env2vec/internal/quality"
	"env2vec/internal/tensor"
)

var testEnvs = []envmeta.Environment{
	{Testbed: "tb1", SUT: "fw", Testcase: "load", Build: "S01"},
	{Testbed: "tb2", SUT: "fw", Testcase: "load", Build: "S02"},
}

// testBundle builds a small serving bundle around an untrained (but
// deterministic) model. seed varies the weights so distinct versions give
// distinct predictions.
func testBundle(seed int64, version int) *Bundle {
	cfg := core.Config{In: 3, Hidden: 8, GRUHidden: 4, EmbedDim: 3, Window: 2, Seed: seed}
	schema := envmeta.NewSchema()
	for _, e := range testEnvs {
		schema.Observe(e)
	}
	schema.Freeze()
	return &Bundle{
		Name:    "test",
		Version: version,
		Model:   core.New(cfg, schema),
		Schema:  schema,
		Std:     &dataset.Standardizer{Mean: []float64{0.1, -0.2, 0.3}, Std: []float64{1, 2, 0.5}},
		YScale:  dataset.YScaler{Mu: 50, Sigma: 10},
	}
}

// randomRequest draws a request targeting one of the known environments.
func randomRequest(rng *rand.Rand) *Request {
	e := testEnvs[rng.Intn(len(testEnvs))]
	req := &Request{
		CF:      []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()},
		Window:  []float64{50 + rng.NormFloat64(), 50 + rng.NormFloat64()},
		Testbed: e.Testbed, SUT: e.SUT, Testcase: e.Testcase, Build: e.Build,
	}
	return req
}

// directPredict runs the same request through the model without the serving
// machinery — the reference the micro-batched path must match exactly.
func directPredict(b *Bundle, req *Request) float64 {
	batch := &nn.Batch{
		X:      tensor.FromSlice(1, len(req.CF), append([]float64(nil), req.CF...)),
		Window: tensor.FromSlice(1, len(req.Window), append([]float64(nil), req.Window...)),
		Y:      tensor.New(1, 1),
		EnvIDs: make([][]int, envmeta.NumFeatures),
	}
	ids := b.Schema.Encode(envmeta.Environment{Testbed: req.Testbed, SUT: req.SUT, Testcase: req.Testcase, Build: req.Build})
	for k := range batch.EnvIDs {
		batch.EnvIDs[k] = []int{ids[k]}
	}
	if b.Std != nil {
		b.Std.Apply(batch.X)
	}
	return b.YScale.Unscale(b.Model.Predict(b.YScale.Scale(batch)))[0]
}

func TestBundleSnapshotRoundTrip(t *testing.T) {
	b := testBundle(3, 1)
	b.Baseline = &quality.Baseline{Mu: 0.4, Sigma: 2.5, Samples: 321}
	snap := b.Model.Snapshot()
	if err := AttachArtifacts(snap, b.Model.Config(), b.Schema, b.Std, b.YScale, b.Baseline); err != nil {
		t.Fatal(err)
	}
	// Serialize through gob like the registry does.
	data, err := snap.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := nn.DecodeSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := BundleFromSnapshot("test", 1, decoded)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Baseline == nil || *restored.Baseline != *b.Baseline {
		t.Fatalf("error baseline lost in round trip: %+v", restored.Baseline)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10; i++ {
		req := randomRequest(rng)
		want := directPredict(b, req)
		got := directPredict(restored, req)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("restored bundle diverges: got %v want %v", got, want)
		}
	}

	// Snapshot without artifacts must be rejected with a clear error.
	if _, err := BundleFromSnapshot("test", 1, b.Model.Snapshot()); err == nil {
		t.Fatalf("snapshot without artifacts should fail")
	}
}

// enqueue admits reqs the way DoBatch does but returns without waiting for
// the answers, so a test can build a backlog behind a stalled worker from
// its own goroutine, in a known order. The items of one call share a wait
// group: await on any of them returns once all of them are answered.
func enqueue(t *testing.T, s *Server, reqs ...*Request) []*item {
	t.Helper()
	slab, resps, wg := make([]item, len(reqs)), make([]Response, len(reqs)), new(sync.WaitGroup)
	items := make([]*item, len(reqs))
	for i, req := range reqs {
		if req.RequestID == "" {
			req.RequestID = obs.NewRequestID()
		}
		slab[i] = item{req: req, enq: time.Now(), resp: &resps[i], wg: wg}
		items[i] = &slab[i]
	}
	wg.Add(len(slab))
	if from, err := s.queue.push(slab); from != len(slab) {
		t.Fatalf("admitted %d of %d: %v", from, len(slab), err)
	}
	return items
}

// holdWorker parks the single worker of a server built with the stall hook:
// it admits one request and returns once the worker has pulled it, which
// is where the hook blocks the pass.
func holdWorker(t *testing.T, s *Server, req *Request) *item {
	t.Helper()
	held := enqueue(t, s, req)[0]
	for deadline := time.Now().Add(30 * time.Second); s.queue.len() > 0; {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked the held request up")
		}
		runtime.Gosched()
	}
	return held
}

// await blocks until a worker has answered it.
func await(t *testing.T, it *item) *Response {
	t.Helper()
	done := make(chan struct{})
	go func() { it.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("request never answered")
	}
	if it.err != nil || it.code != http.StatusOK {
		t.Fatalf("request failed: %d %v", it.code, it.err)
	}
	return it.resp
}

func TestServeMatchesDirectPredictAndBatches(t *testing.T) {
	b := testBundle(1, 1)
	const maxBatch, n = 16, 3*16 + 5
	stall := make(chan struct{})
	s := New(Config{MaxBatch: maxBatch, QueueDepth: 256, Workers: 1, stall: stall})
	defer s.Close()
	s.SetBundle(b)

	rng := rand.New(rand.NewSource(9))
	reqs := make([]*Request, n)
	want := make([]float64, n)
	for i := range reqs {
		reqs[i] = randomRequest(rng)
		want[i] = directPredict(b, reqs[i])
	}
	// The backlog that builds while the only worker is busy is what a pass
	// combines: n requests behind one held pass make ⌈n/MaxBatch⌉ more.
	held := holdWorker(t, s, randomRequest(rng))
	items := enqueue(t, s, reqs...)
	close(stall)
	if resp := await(t, held); resp.BatchSize != 1 {
		t.Fatalf("held request served in a pass of %d, want 1", resp.BatchSize)
	}
	for i, it := range items {
		resp := await(t, it)
		if math.Abs(resp.Prediction-want[i]) > 1e-9 {
			t.Errorf("request %d: got %v want %v", i, resp.Prediction, want[i])
		}
		if resp.ModelVersion != 1 || resp.Model != "test" {
			t.Errorf("request %d: wrong model identity %s/v%d", i, resp.Model, resp.ModelVersion)
		}
		wantSize := maxBatch
		if i >= n-n%maxBatch {
			wantSize = n % maxBatch
		}
		if resp.BatchSize != wantSize {
			t.Errorf("request %d: served in a pass of %d, want %d", i, resp.BatchSize, wantSize)
		}
	}
	st := s.Stats()
	if st.Served != n+1 {
		t.Fatalf("served %d, want %d", st.Served, n+1)
	}
	if wantPasses := uint64(1 + (n+maxBatch-1)/maxBatch); st.Batches != wantPasses {
		t.Fatalf("%d forward passes for %d requests behind a held one, want %d", st.Batches, n, wantPasses)
	}
	if st.MaxBatchObserved != maxBatch {
		t.Fatalf("largest pass %d, want %d", st.MaxBatchObserved, maxBatch)
	}
}

func TestBackpressureRejectsInsteadOfHanging(t *testing.T) {
	// Hold the single worker on the stall hook so the bounded queue must
	// genuinely fill: admitted requests block, everyone else must be
	// rejected immediately rather than queued unboundedly.
	stall := make(chan struct{})
	s := New(Config{MaxBatch: 1, QueueDepth: 4, Workers: 1, stall: stall})
	defer s.Close()
	s.SetBundle(testBundle(1, 1))

	rng := rand.New(rand.NewSource(3))
	const n = 128
	codes := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		req := randomRequest(rng)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, code, _ := s.Do(req)
			codes <- code
		}()
	}
	// While the worker is stalled no request can complete, so the first
	// arrival proves the queue overflowed into a 429.
	select {
	case first := <-codes:
		if first != http.StatusTooManyRequests {
			t.Fatalf("first completion while stalled was %d, want 429", first)
		}
		codes <- first
	case <-time.After(30 * time.Second):
		t.Fatal("no request was shed despite a stalled worker")
	}
	close(stall) // release the worker; admitted requests drain
	fin := make(chan struct{})
	go func() { wg.Wait(); close(fin) }()
	select {
	case <-fin:
	case <-time.After(30 * time.Second):
		t.Fatal("overload hung instead of shedding")
	}
	close(codes)
	var ok, rejected int
	for c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Fatalf("unexpected status %d", c)
		}
	}
	if rejected == 0 {
		t.Fatalf("queue bound 4 with %d concurrent requests produced no 429s (%d ok)", n, ok)
	}
	if ok == 0 {
		t.Fatalf("overload starved every request")
	}
	if got := s.Stats().Rejected; got != uint64(rejected) {
		t.Fatalf("stats rejected %d, observed %d", got, rejected)
	}
}

func TestHotReloadSwapsVersions(t *testing.T) {
	b1, b2 := testBundle(1, 1), testBundle(2, 2)
	s := New(Config{MaxBatch: 4, QueueDepth: 64, Workers: 2})
	defer s.Close()
	s.SetBundle(b1)

	rng := rand.New(rand.NewSource(2))
	req := randomRequest(rng)
	resp, _, err := s.Do(req)
	if err != nil || resp.ModelVersion != 1 {
		t.Fatalf("v1 serve failed: %+v %v", resp, err)
	}
	want1, want2 := directPredict(b1, req), directPredict(b2, req)
	if math.Abs(want1-want2) < 1e-9 {
		t.Fatalf("test bundles should predict differently")
	}

	// Keep traffic flowing while the swap happens; every response must be
	// exactly right for whichever version it reports.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r := *req
				resp, code, err := s.Do(&r)
				if err != nil || code != http.StatusOK {
					t.Errorf("request dropped during reload: %d %v", code, err)
					return
				}
				want := want1
				if resp.ModelVersion == 2 {
					want = want2
				}
				if math.Abs(resp.Prediction-want) > 1e-9 {
					t.Errorf("v%d response wrong: got %v", resp.ModelVersion, resp.Prediction)
					return
				}
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	s.SetBundle(b2)
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()

	resp, _, err = s.Do(req)
	if err != nil || resp.ModelVersion != 2 {
		t.Fatalf("v2 not serving after swap: %+v %v", resp, err)
	}
	if got := s.reloads.Value(); got != 1 {
		t.Fatalf("reload count %d, want 1", got)
	}
}

func TestRequestValidationAndLifecycle(t *testing.T) {
	s := New(Config{MaxBatch: 2, QueueDepth: 8, Workers: 1})
	// No model yet.
	if _, code, err := s.Do(&Request{}); code != http.StatusServiceUnavailable || err != ErrNoModel {
		t.Fatalf("expected 503/no-model, got %d %v", code, err)
	}
	s.SetBundle(testBundle(1, 1))
	// Wrong feature arity.
	if _, code, _ := s.Do(&Request{CF: []float64{1}, Window: []float64{1, 2}}); code != http.StatusBadRequest {
		t.Fatalf("bad CF accepted: %d", code)
	}
	// Wrong window length.
	if _, code, _ := s.Do(&Request{CF: []float64{1, 2, 3}, Window: []float64{1}}); code != http.StatusBadRequest {
		t.Fatalf("bad window accepted: %d", code)
	}
	// Unknown environment values flow through <unk>, not an error.
	if _, code, err := s.Do(&Request{CF: []float64{1, 2, 3}, Window: []float64{1, 2}, Testbed: "never-seen"}); code != http.StatusOK {
		t.Fatalf("unseen environment rejected: %d %v", code, err)
	}
	s.Close()
	s.Close() // idempotent
	if _, code, err := s.Do(&Request{CF: []float64{1, 2, 3}, Window: []float64{1, 2}}); code != http.StatusServiceUnavailable || err != ErrClosed {
		t.Fatalf("closed server accepted work: %d %v", code, err)
	}
}

func TestInlineAnomalyVerdicts(t *testing.T) {
	b := testBundle(1, 1)
	s := New(Config{
		MaxBatch: 1, QueueDepth: 8, Workers: 1,
		Detect:         &anomaly.Config{Gamma: 2, AbsFilter: 5},
		MinCalibration: 4,
	})
	defer s.Close()
	s.SetBundle(b)

	rng := rand.New(rand.NewSource(5))
	base := randomRequest(rng)
	pred := directPredict(b, base)

	// Calibration phase: accurate observations, no verdicts yet.
	for i := 0; i < 4; i++ {
		r := *base
		actual := pred
		r.Actual = &actual
		resp, _, err := s.Do(&r)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Anomalous != nil {
			t.Fatalf("verdict before calibration completed (sample %d)", i)
		}
	}
	// Accurate observation → not anomalous.
	r := *base
	actual := pred
	r.Actual = &actual
	resp, _, err := s.Do(&r)
	if err != nil || resp.Anomalous == nil {
		t.Fatalf("calibrated chain gave no verdict: %+v %v", resp, err)
	}
	if *resp.Anomalous {
		t.Fatalf("accurate observation flagged anomalous")
	}
	// Large deviation → anomalous, with the deviation reported.
	r2 := *base
	bad := pred - 40
	r2.Actual = &bad
	resp, _, err = s.Do(&r2)
	if err != nil || resp.Anomalous == nil || !*resp.Anomalous {
		t.Fatalf("40-point deviation not flagged: %+v %v", resp, err)
	}
	if resp.Deviation == nil || math.Abs(*resp.Deviation-40) > 1e-9 {
		t.Fatalf("deviation wrong: %+v", resp.Deviation)
	}
	// Sub-filter deviation (< 5 points) stays unflagged even if γ·σ≈0.
	r3 := *base
	small := pred - 3
	r3.Actual = &small
	resp, _, err = s.Do(&r3)
	if err != nil || resp.Anomalous == nil || *resp.Anomalous {
		t.Fatalf("3-point deviation should pass the absolute filter: %+v %v", resp, err)
	}
}

func TestHTTPSurface(t *testing.T) {
	s := New(Config{MaxBatch: 4, QueueDepth: 16, Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()

	// Health before a model loads.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz without model: %d", resp.StatusCode)
	}

	b := testBundle(1, 1)
	s.SetBundle(b)
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz with model: %d", resp.StatusCode)
	}

	// A prediction round trip.
	rng := rand.New(rand.NewSource(11))
	req := randomRequest(rng)
	body, _ := json.Marshal(req)
	post, err := http.Post(srv.URL+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out Response
	if err := json.NewDecoder(post.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d", post.StatusCode)
	}
	if want := directPredict(b, req); math.Abs(out.Prediction-want) > 1e-9 {
		t.Fatalf("HTTP prediction %v, want %v", out.Prediction, want)
	}

	// Malformed body → 400; wrong method → 405.
	bad, _ := http.Post(srv.URL+"/predict", "application/json", bytes.NewReader([]byte("{")))
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed predict: %d", bad.StatusCode)
	}
	get, _ := http.Get(srv.URL + "/predict")
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET predict: %d", get.StatusCode)
	}

	// Stats endpoint reflects the traffic.
	statz, err := http.Get(srv.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(statz.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	statz.Body.Close()
	if st.Served != 1 || st.Model != "test" || st.ModelVersion != 1 || st.ModelIn != 3 || st.ModelWindow != 2 {
		t.Fatalf("statz wrong: %+v", st)
	}
}
