package proxy

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"env2vec/internal/envmeta"
	"env2vec/internal/obs"
	"env2vec/internal/serve"
	"env2vec/internal/wire"
)

// attachWire gives an e2e backend a binary-protocol listener beside its
// HTTP one, dispatching into the same serve.Server.
func attachWire(t *testing.T, be *e2eBackend) (string, *wire.Server) {
	t.Helper()
	ws := wire.NewServer(be.s, wire.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = ws.Serve(ln) }()
	t.Cleanup(ws.Close)
	return ln.Addr().String(), ws
}

func TestProxyBodyLimit(t *testing.T) {
	be := newE2EBackend(t, 3)
	p := New(Config{Backends: []string{be.srv.URL}, MaxBodyBytes: 1 << 10})
	defer p.Close()
	front := httptest.NewServer(p)
	defer front.Close()

	good := `{"cf":[1,2,3],"window":[50,51],"testbed":"tb1","sut":"fw","testcase":"load","build":"B1"}`
	resp, err := http.Post(front.URL+"/predict", "application/json", strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-bounds predict: %d", resp.StatusCode)
	}

	huge := `{"pad":"` + strings.Repeat("x", 2<<10) + `"}`
	for _, path := range []string{"/predict", "/observe"} {
		resp, err := http.Post(front.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized %s: %d, want 413", path, resp.StatusCode)
		}
	}
}

// TestProxyErrorBodyCap pins the error-relay bound: a backend answering
// with a conclusive error status and an enormous body must not balloon
// through the proxy — at most maxErrorBodyBytes of it are read or relayed.
func TestProxyErrorBodyCap(t *testing.T) {
	giant := bytes.Repeat([]byte("e"), 1<<20)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			fmt.Fprintln(w, "ok")
			return
		}
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = w.Write(giant)
	}))
	defer backend.Close()

	p := New(Config{Backends: []string{backend.URL}})
	defer p.Close()
	front := httptest.NewServer(p)
	defer front.Close()

	resp, err := http.Post(front.URL+"/predict", "application/json",
		strings.NewReader(`{"testbed":"tb1","sut":"fw","testcase":"load","build":"B1"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want the backend's 500 relayed", resp.StatusCode)
	}
	if len(body) > maxErrorBodyBytes {
		t.Fatalf("relayed %d bytes of error body, cap is %d", len(body), maxErrorBodyBytes)
	}
}

// TestE2EWireMixedProtocolFailover is the wire acceptance test: two real
// backends serving JSON and binary side by side, a proxy fronting both
// protocols, mixed JSON + batch + stream traffic, and a backend killed
// between phases. Every post-kill request must land on the survivor.
func TestE2EWireMixedProtocolFailover(t *testing.T) {
	b0, b1 := newE2EBackend(t, 7), newE2EBackend(t, 11)
	w0, ws0 := attachWire(t, b0)
	w1, _ := attachWire(t, b1)

	p := New(Config{
		Backends:     []string{b0.srv.URL, b1.srv.URL},
		WireBackends: []string{w0, w1},
		FailAfter:    1,
		RiseAfter:    1,
		LoadFactor:   1,
		RetryBackoff: time.Millisecond,
		Timeout:      5 * time.Second,
		Trace:        obs.TraceStoreConfig{Capacity: 32, SampleRate: 1},
	})
	defer p.Close()
	front := httptest.NewServer(p)
	defer front.Close()
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = p.ServeWire(wln) }()
	proxyWire := wln.Addr().String()
	client := &http.Client{Timeout: 5 * time.Second}

	rng := rand.New(rand.NewSource(5))
	newReq := func(build string) *serve.Request {
		return &serve.Request{
			CF:      []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()},
			Window:  []float64{50 + rng.NormFloat64(), 50 + rng.NormFloat64()},
			Testbed: "tb1", SUT: "fw", Testcase: "load", Build: build,
		}
	}

	runMixed := func(phase string) {
		// JSON through the HTTP front.
		for i := 0; i < 16; i++ {
			body := fmt.Sprintf(`{"cf":[%f,%f,%f],"window":[50,51],"testbed":"tb1","sut":"fw","testcase":"load","build":"B%d"}`,
				rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), i%8)
			resp, err := client.Post(front.URL+"/predict", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("%s: json predict: %v", phase, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: json predict status %d", phase, resp.StatusCode)
			}
		}
		// Binary batches through the wire front — builds span both ring
		// homes, so a batch exercises scatter/gather and failover at once.
		c, err := wire.Dial(proxyWire, wire.ClientConfig{Timeout: 5 * time.Second})
		if err != nil {
			t.Fatalf("%s: wire dial: %v", phase, err)
		}
		for round := 0; round < 4; round++ {
			reqs := make([]*serve.Request, 8)
			for i := range reqs {
				reqs[i] = newReq(fmt.Sprintf("B%d", i))
			}
			replies, err := c.Predict(reqs)
			if err != nil {
				t.Fatalf("%s: wire predict: %v", phase, err)
			}
			for i, rep := range replies {
				if rep.Status != http.StatusOK {
					t.Fatalf("%s: wire reply %d: status %d (%s)", phase, i, rep.Status, rep.Error)
				}
				if rep.RequestID == "" {
					t.Fatalf("%s: wire reply %d missing request id", phase, i)
				}
			}
		}
		c.Close()
		// One subscribe stream spliced through to its home backend.
		sc, err := wire.Dial(proxyWire, wire.ClientConfig{Timeout: 5 * time.Second})
		if err != nil {
			t.Fatalf("%s: stream dial: %v", phase, err)
		}
		st, err := sc.Subscribe(envmeta.Environment{Testbed: "tb1", SUT: "fw", Testcase: "load", Build: "B1"}, "")
		if err != nil {
			t.Fatalf("%s: subscribe: %v", phase, err)
		}
		_ = st.SetDeadline(time.Now().Add(5 * time.Second))
		if ack := st.Ack(); ack.In != 3 || ack.Window != 2 {
			t.Fatalf("%s: subscribe ack %+v", phase, ack)
		}
		for i := 0; i < 8; i++ {
			r := newReq("B1")
			if err := st.Send(wire.Window{Seq: st.NextSeq(), CF: r.CF, Window: r.Window}); err != nil {
				t.Fatalf("%s: stream send: %v", phase, err)
			}
			pred, err := st.Recv()
			if err != nil {
				t.Fatalf("%s: stream recv: %v", phase, err)
			}
			if pred.Status != http.StatusOK {
				t.Fatalf("%s: stream prediction status %d (%s)", phase, pred.Status, pred.Error)
			}
		}
		st.Close()
	}

	runMixed("healthy")

	// Kill backend 0 on both protocols. Pooled wire connections and any
	// spliced stream to it die; the retry budget and redial-shaped stream
	// failover must absorb all of it.
	b0.srv.Close()
	ws0.Close()

	runMixed("post-kill")

	if p.backends[0].Alive() {
		t.Fatal("killed backend still marked alive after wire failovers")
	}
	if !p.backends[1].Alive() {
		t.Fatal("survivor marked dead")
	}

	// The wire path's sticky bookkeeping works across protocols: a binary
	// prediction's request id accepts ground truth over JSON /observe.
	c, err := wire.Dial(proxyWire, wire.ClientConfig{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	replies, err := c.Predict([]*serve.Request{newReq("B1")})
	if err != nil || replies[0].Status != http.StatusOK {
		t.Fatalf("wire predict for observe: %v %+v", err, replies)
	}
	obsBody := fmt.Sprintf(`{"request_id":%q,"actual":50.5}`, replies[0].RequestID)
	resp, err := client.Post(front.URL+"/observe", "application/json", strings.NewReader(obsBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe for a wire-served prediction: %d, want 200", resp.StatusCode)
	}
}
