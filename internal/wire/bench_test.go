package wire

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"env2vec/internal/core"
	"env2vec/internal/dataset"
	"env2vec/internal/envmeta"
	"env2vec/internal/obs"
	"env2vec/internal/serve"
)

// benchRequests builds a deterministic batch shaped like the paper's
// serving experiments: In=6 context features, Window=20 timesteps.
func benchRequests(n, in, window int) []*serve.Request {
	rng := rand.New(rand.NewSource(42))
	reqs := make([]*serve.Request, n)
	for i := range reqs {
		r := &serve.Request{
			CF:      make([]float64, in),
			Window:  make([]float64, window),
			Testbed: "tb1", SUT: "fw", Testcase: "load", Build: "B1",
			RequestID: "0123456789abcdef",
		}
		for j := range r.CF {
			r.CF[j] = rng.NormFloat64()
		}
		for j := range r.Window {
			r.Window[j] = 50 + rng.NormFloat64()
		}
		reqs[i] = r
	}
	return reqs
}

func benchReplies(n int) []Reply {
	replies := make([]Reply, n)
	for i := range replies {
		replies[i] = Reply{
			RequestID: "0123456789abcdef", Status: 200,
			Prediction: 49.5, Model: "env2vec", ModelVersion: 3, BatchSize: 8,
		}
	}
	return replies
}

// BenchmarkEncodeDecodeJSON_B8W20 is the JSON baseline the wire codec is
// measured against: one 8-request batch (In=6, Window=20) plus its replies,
// marshalled and unmarshalled.
func BenchmarkEncodeDecodeJSON_B8W20(b *testing.B) {
	reqs := benchRequests(8, 6, 20)
	replies := benchReplies(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reqRaw, err := json.Marshal(reqs)
		if err != nil {
			b.Fatal(err)
		}
		var gotReqs []*serve.Request
		if err := json.Unmarshal(reqRaw, &gotReqs); err != nil {
			b.Fatal(err)
		}
		repRaw, err := json.Marshal(replies)
		if err != nil {
			b.Fatal(err)
		}
		var gotReps []Reply
		if err := json.Unmarshal(repRaw, &gotReps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeDecodeWire_B8W20 is the same batch through the binary
// frame codec, buffers reused as the client and server do.
func BenchmarkEncodeDecodeWire_B8W20(b *testing.B) {
	reqs := benchRequests(8, 6, 20)
	replies := benchReplies(8)
	var reqBuf, repBuf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reqBuf = AppendPredictBatch(reqBuf[:0], reqs)
		if _, err := DecodePredictBatch(reqBuf); err != nil {
			b.Fatal(err)
		}
		repBuf = AppendPredictReplies(repBuf[:0], replies)
		if _, err := DecodePredictReplies(repBuf); err != nil {
			b.Fatal(err)
		}
	}
}

// benchServe stands up a serve.Server with the benchmark model shape.
func benchServe(b *testing.B, in, window int) *serve.Server {
	b.Helper()
	cfg := core.Config{In: in, Hidden: 16, GRUHidden: 8, EmbedDim: 4, Window: window, Seed: 1}
	schema := envmeta.NewSchema()
	schema.Observe(testEnv)
	schema.Freeze()
	bundle := &serve.Bundle{
		Name: "bench", Version: 1,
		Model:  core.New(cfg, schema),
		Schema: schema,
		YScale: dataset.YScaler{Mu: 50, Sigma: 10},
	}
	// Every trace is dropped: a kept one is built, a dozen objects a window,
	// and the sampler's coin would make allocs/op — which the benchjson gate
	// holds exactly — a matter of luck.
	s := serve.New(serve.Config{
		MaxBatch: 16, QueueDepth: 1024, Workers: 2,
		Trace: obs.TraceStoreConfig{SampleRate: -1, SlowMS: -1},
	})
	b.Cleanup(s.Close)
	s.SetBundle(bundle)
	return s
}

// reportP99 attaches the tail to the benchmark line; benchjson keeps the
// ns/op and skips unknown units, so the p99 lives in the text output.
func reportP99(b *testing.B, samples []float64) {
	if len(samples) == 0 {
		return
	}
	sort.Float64s(samples)
	b.ReportMetric(samples[len(samples)*99/100], "p99ms")
}

// BenchmarkRoundTripJSON_W20 is one HTTP POST /predict per op against a
// live server — the transport the wire protocol replaces.
func BenchmarkRoundTripJSON_W20(b *testing.B) {
	s := benchServe(b, 6, 20)
	srv := httptest.NewServer(s)
	defer srv.Close()
	req := benchRequests(1, 6, 20)[0]
	req.RequestID = ""
	body, _ := json.Marshal(req)
	client := &http.Client{}
	samples := make([]float64, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		resp, err := client.Post(srv.URL+"/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var out serve.Response
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		samples = append(samples, float64(time.Since(t0).Microseconds())/1000)
	}
	b.StopTimer()
	reportP99(b, samples)
}

// BenchmarkRoundTripBinary_B8W20 is one 8-request batch frame per op over
// a persistent wire connection; ns/op covers the whole batch.
func BenchmarkRoundTripBinary_B8W20(b *testing.B) {
	s := benchServe(b, 6, 20)
	addr := newBenchWire(b, s)
	c, err := Dial(addr, ClientConfig{Timeout: 10 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	reqs := benchRequests(8, 6, 20)
	for _, r := range reqs {
		r.RequestID = ""
	}
	samples := make([]float64, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		replies, err := c.Predict(reqs)
		if err != nil {
			b.Fatal(err)
		}
		for _, rep := range replies {
			if rep.Status != http.StatusOK {
				b.Fatalf("status %d (%s)", rep.Status, rep.Error)
			}
		}
		for _, r := range reqs {
			r.RequestID = "" // fresh ids per round, as a client would send
		}
		samples = append(samples, float64(time.Since(t0).Microseconds())/1000)
	}
	b.StopTimer()
	reportP99(b, samples)
}

// BenchmarkRoundTripStream_W20 is one subscribe-mode window→prediction
// round trip per op: the per-timestep serving loop with no per-request
// connection, header, or envelope cost.
func BenchmarkRoundTripStream_W20(b *testing.B) {
	s := benchServe(b, 6, 20)
	addr := newBenchWire(b, s)
	c, err := Dial(addr, ClientConfig{Timeout: 10 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	st, err := c.Subscribe(testEnv, "")
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	req := benchRequests(1, 6, 20)[0]
	samples := make([]float64, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if err := st.Send(Window{Seq: st.NextSeq(), CF: req.CF, Window: req.Window}); err != nil {
			b.Fatal(err)
		}
		pred, err := st.Recv()
		if err != nil {
			b.Fatal(err)
		}
		if pred.Status != http.StatusOK {
			b.Fatalf("status %d (%s)", pred.Status, pred.Error)
		}
		samples = append(samples, float64(time.Since(t0).Microseconds())/1000)
	}
	b.StopTimer()
	reportP99(b, samples)
}

func newBenchWire(b *testing.B, dispatch *serve.Server) string {
	b.Helper()
	ws := NewServer(dispatch, ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = ws.Serve(ln) }()
	b.Cleanup(ws.Close)
	return ln.Addr().String()
}
