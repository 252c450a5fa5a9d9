package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"env2vec/internal/core"
	"env2vec/internal/dataset"
	"env2vec/internal/envmeta"
	"env2vec/internal/obs"
	"env2vec/internal/quality"
	"env2vec/internal/serve"
)

// loadTestServer hosts a real serve.Server (quality monitor on) behind
// httptest for the generator to hammer.
func loadTestServer(t *testing.T) (*serve.Server, *httptest.Server) {
	t.Helper()
	cfg := core.Config{In: 3, Hidden: 8, GRUHidden: 4, EmbedDim: 3, Window: 2, Seed: 5}
	schema := envmeta.NewSchema()
	schema.Observe(envmeta.Environment{Testbed: "tb1", SUT: "fw", Testcase: "load", Build: "B1"})
	schema.Freeze()
	b := &serve.Bundle{
		Name: "test", Version: 1,
		Model:    core.New(cfg, schema),
		Schema:   schema,
		YScale:   dataset.YScaler{Mu: 50, Sigma: 10},
		Baseline: &quality.Baseline{Mu: 0, Sigma: 5, Samples: 100},
	}
	s := serve.New(serve.Config{
		MaxBatch: 8, QueueDepth: 64, Workers: 2,
		Quality: &quality.Config{},
		// Keep every trace so the slow-trace report below is deterministic.
		Trace: obs.TraceStoreConfig{Capacity: 256, SampleRate: 1},
	})
	t.Cleanup(s.Close)
	s.SetBundle(b)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return s, srv
}

func TestLoadGeneratorDrivesServer(t *testing.T) {
	s, srv := loadTestServer(t)
	var out bytes.Buffer
	err := run([]string{
		"-addr", srv.URL, "-c", "3", "-duration", "300ms", "-rps", "300", "-actuals", "0.5",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if s.Stats().Served == 0 {
		t.Fatal("generator served no traffic")
	}
	for _, want := range []string{
		"model=test/v1 in=3 window=2",
		"sent ",
		"client latency p50=",
		"forward p99=",
		// The slow-trace report: N slowest retained traces as span trees.
		"slow trace ",
		"serve.request",
		"serve.forward",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
	// Half the requests carried ground truth, so the quality monitor saw them.
	if s.Quality().Snapshot().Observations == 0 {
		t.Fatalf("no quality observations despite -actuals 0.5")
	}
}

func TestLoadGeneratorRefusesModellessServer(t *testing.T) {
	s := serve.New(serve.Config{MaxBatch: 1, QueueDepth: 8, Workers: 1})
	t.Cleanup(s.Close)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	var out bytes.Buffer
	err := run([]string{"-addr", srv.URL, "-duration", "100ms"}, &out)
	if err == nil || !strings.Contains(err.Error(), "no model") {
		t.Fatalf("expected no-model error, got %v", err)
	}
}

func TestLoadGeneratorUnreachableTarget(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-addr", "http://127.0.0.1:1", "-duration", "100ms"}, &out); err == nil {
		t.Fatal("expected error for unreachable target")
	}
}

func TestLoadGeneratorMultiTarget(t *testing.T) {
	s1, srv1 := loadTestServer(t)
	s2, srv2 := loadTestServer(t)
	var out bytes.Buffer
	err := run([]string{
		"-targets", srv1.URL + "," + srv2.URL,
		"-c", "4", "-duration", "300ms", "-rps", "400",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if s1.Stats().Served == 0 || s2.Stats().Served == 0 {
		t.Fatalf("load not spread: target1 served %d, target2 served %d",
			s1.Stats().Served, s2.Stats().Served)
	}
	for _, want := range []string{
		"targets 2 model=test/v1",
		"target " + srv1.URL + ":",
		"target " + srv2.URL + ":",
		"server " + srv1.URL + " p50=",
		"server " + srv2.URL + " p50=",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

// With only one target of several reachable for shape discovery, the
// generator must still boot (it tries each in turn).
func TestLoadGeneratorShapeDiscoveryFallsBack(t *testing.T) {
	_, srv := loadTestServer(t)
	var out bytes.Buffer
	err := run([]string{
		"-targets", "http://127.0.0.1:1," + srv.URL,
		"-c", "2", "-duration", "150ms",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "targets 2 model=test/v1") {
		t.Fatalf("discovery fallback failed:\n%s", out.String())
	}
}

// TestLoadGeneratorAlertsGate: with -alerts, the run fails when the
// monitoring plane reports a firing alert and passes when it doesn't.
func TestLoadGeneratorAlertsGate(t *testing.T) {
	_, srv := loadTestServer(t)

	firing := true
	alerts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/alerts" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if firing {
			fmt.Fprint(w, `{"status":"success","data":[{"name":"ServeAvailabilityFastBurn","state":"firing","value":22.5,"annotations":{"summary":"budget burning"}}]}`)
		} else {
			fmt.Fprint(w, `{"status":"success","data":[]}`)
		}
	}))
	t.Cleanup(alerts.Close)

	var out bytes.Buffer
	err := run([]string{"-addr", srv.URL, "-duration", "100ms", "-slow-traces", "0", "-alerts", alerts.URL}, &out)
	if err == nil || !strings.Contains(err.Error(), "firing") {
		t.Fatalf("expected firing-alert failure, got %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "alert firing ServeAvailabilityFastBurn") {
		t.Fatalf("firing alert not printed:\n%s", out.String())
	}

	firing = false
	out.Reset()
	if err := run([]string{"-addr", srv.URL, "-duration", "100ms", "-slow-traces", "0", "-alerts", alerts.URL}, &out); err != nil {
		t.Fatalf("clean alerts should pass: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "none firing") {
		t.Fatalf("clean summary missing:\n%s", out.String())
	}
}
