package wire_test

import (
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"env2vec/internal/core"
	"env2vec/internal/dataset"
	"env2vec/internal/envmeta"
	"env2vec/internal/obs"
	"env2vec/internal/proxy"
	"env2vec/internal/serve"
	"env2vec/internal/wire"
)

// BenchmarkRoundTripProxy_B32W20 is one 32-request batch frame per op from a
// client through the proxy's wire front to an in-process backend and back:
// the hop batch_wire_closed measures, with every trace dropped so allocs/op
// is exact. ns/op covers the whole frame.
func BenchmarkRoundTripProxy_B32W20(b *testing.B) {
	const batch, in, window = 32, 6, 20
	env := envmeta.Environment{Testbed: "tb1", SUT: "fw", Testcase: "load", Build: "B1"}
	schema := envmeta.NewSchema()
	schema.Observe(env)
	schema.Freeze()
	dropAll := obs.TraceStoreConfig{SampleRate: -1, SlowMS: -1}
	s := serve.New(serve.Config{MaxBatch: batch, QueueDepth: 1024, Workers: 2, Trace: dropAll})
	b.Cleanup(s.Close)
	s.SetBundle(&serve.Bundle{
		Name: "bench", Version: 1, Schema: schema, YScale: dataset.YScaler{Mu: 50, Sigma: 10},
		Model: core.New(core.Config{In: in, Hidden: 16, GRUHidden: 8, EmbedDim: 4, Window: window, Seed: 1}, schema),
	})
	httpSrv := httptest.NewServer(s)
	b.Cleanup(httpSrv.Close)
	backend := wire.NewServer(s, wire.ServerConfig{})
	b.Cleanup(backend.Close)
	p := proxy.New(proxy.Config{
		Backends: []string{httpSrv.URL}, WireBackends: []string{listen(b, backend.Serve)},
		Trace: dropAll, Timeout: 10 * time.Second,
	})
	b.Cleanup(p.Close)
	c, err := wire.Dial(listen(b, p.ServeWire), wire.ClientConfig{Timeout: 10 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(42))
	reqs := make([]*serve.Request, batch)
	for i := range reqs {
		r := &serve.Request{
			CF: make([]float64, in), Window: make([]float64, window),
			Testbed: env.Testbed, SUT: env.SUT, Testcase: env.Testcase, Build: env.Build,
		}
		for j := range r.CF {
			r.CF[j] = rng.NormFloat64()
		}
		for j := range r.Window {
			r.Window[j] = 50 + rng.NormFloat64()
		}
		reqs[i] = r
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replies, err := c.Predict(reqs) // no ids: the proxy mints them, as for the benchmark's client
		if err != nil {
			b.Fatal(err)
		}
		for _, rep := range replies {
			if rep.Status != http.StatusOK {
				b.Fatalf("status %d (%s)", rep.Status, rep.Error)
			}
		}
	}
}

// listen serves on a fresh loopback listener and returns its address.
func listen(b *testing.B, serve func(net.Listener) error) string {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = serve(ln) }()
	return ln.Addr().String()
}
