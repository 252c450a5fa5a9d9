// End-to-end test of the -precision flag: two daemons boot from the same
// snapshot, one float64 and one float32, and must agree on /predict within
// the documented float32 tolerance over BOTH transports (JSON HTTP and the
// binary wire protocol), while /metrics reports which numeric path each
// daemon is on.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"env2vec/internal/core"
	"env2vec/internal/dataset"
	"env2vec/internal/envmeta"
	"env2vec/internal/serve"
	"env2vec/internal/wire"
)

// writeServingSnapshot builds a small deterministic model with serving
// artifacts attached and saves it where a daemon's -model flag can load it.
func writeServingSnapshot(t *testing.T, path string) {
	t.Helper()
	cfg := core.Config{In: 3, Hidden: 9, GRUHidden: 5, EmbedDim: 3, Window: 4, Seed: 7}
	schema := envmeta.NewSchema()
	schema.Observe(envmeta.Environment{Testbed: "tb1", SUT: "fw", Testcase: "load", Build: "S01"})
	schema.Observe(envmeta.Environment{Testbed: "tb2", SUT: "fw", Testcase: "scale", Build: "S02"})
	schema.Freeze()
	m := core.New(cfg, schema)
	snap := m.Snapshot()
	std := &dataset.Standardizer{Mean: []float64{0.1, -0.2, 0.3}, Std: []float64{1, 2, 0.5}}
	if err := serve.AttachArtifacts(snap, cfg, schema, std, dataset.YScaler{Mu: 50, Sigma: 10}, nil); err != nil {
		t.Fatal(err)
	}
	if err := snap.SaveFile(path); err != nil {
		t.Fatal(err)
	}
}

func predictJSON(t *testing.T, port int, req *serve.Request) float64 {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(fmt.Sprintf("http://127.0.0.1:%d/predict", port), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/predict status %d", resp.StatusCode)
	}
	var out struct {
		Prediction float64 `json:"prediction"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Prediction
}

func predictWire(t *testing.T, port int, req *serve.Request) float64 {
	t.Helper()
	c, err := wire.Dial(fmt.Sprintf("127.0.0.1:%d", port), wire.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	replies, err := c.Predict([]*serve.Request{req})
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 1 || replies[0].Status != http.StatusOK {
		t.Fatalf("wire predict: %+v", replies)
	}
	return replies[0].Prediction
}

func TestServePrecisionRejectsUnknown(t *testing.T) {
	bin := buildServe(t)
	out, err := exec.Command(bin, "-model", "x.model", "-precision", "float16").CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("err=%v out=%q", err, out)
	}
	if !strings.Contains(string(out), `unknown precision "float16"`) {
		t.Fatalf("output %q", out)
	}
}

func TestServePrecisionFloat32E2E(t *testing.T) {
	snapPath := filepath.Join(t.TempDir(), "model.snapshot")
	writeServingSnapshot(t, snapPath)
	bin := buildServe(t)

	boot := func(precision string) (httpPort, wirePort int) {
		httpPort, wirePort = freePort(t), freePort(t)
		cmd := exec.Command(bin,
			"-model", snapPath,
			"-precision", precision,
			"-addr", fmt.Sprintf("127.0.0.1:%d", httpPort),
			"-wire-addr", fmt.Sprintf("127.0.0.1:%d", wirePort),
			"-log-level", "error")
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		})
		return httpPort, wirePort
	}
	http64, wire64 := boot("float64")
	http32, wire32 := boot("float32")

	// The env2vec_infer_precision gauge names the active numeric path.
	for _, tc := range []struct {
		port  int
		gauge string
	}{
		{http64, "env2vec_infer_precision 64"},
		{http32, "env2vec_infer_precision 32"},
	} {
		if body := scrape(t, fmt.Sprintf("http://127.0.0.1:%d/metrics", tc.port)); !strings.Contains(body, tc.gauge) {
			t.Fatalf("port %d /metrics missing %s:\n%s", tc.port, tc.gauge, body)
		}
	}

	reqs := []*serve.Request{
		{CF: []float64{0.4, -1.2, 0.9}, Window: []float64{49, 51, 50.5, 52},
			Testbed: "tb1", SUT: "fw", Testcase: "load", Build: "S01"},
		{CF: []float64{-0.3, 0.8, -1.5}, Window: []float64{55, 54, 53, 56},
			Testbed: "tb2", SUT: "fw", Testcase: "scale", Build: "S02"},
		{CF: []float64{1.1, 0.2, 0.7}, Window: []float64{48, 47.5, 49, 48.2},
			Testbed: "never", SUT: "seen", Testcase: "before", Build: "X"}, // <unk> fallback
	}
	for i, req := range reqs {
		j64 := predictJSON(t, http64, req)
		j32 := predictJSON(t, http32, req)
		w64 := predictWire(t, wire64, req)
		w32 := predictWire(t, wire32, req)

		// Same server, different transports: the identical forward pass,
		// modulo JSON float formatting (which Go round-trips exactly).
		if math.Abs(j64-w64) > 1e-9 || math.Abs(j32-w32) > 1e-9 {
			t.Fatalf("req %d: transports disagree: json64=%v wire64=%v json32=%v wire32=%v", i, j64, w64, j32, w32)
		}
		// Across precisions: the documented float32 serving tolerance.
		scale := math.Max(1, math.Abs(j64))
		if d := math.Abs(j32 - j64); d > 1e-3*scale {
			t.Fatalf("req %d: float32 daemon %v vs float64 daemon %v (diff %g)", i, j32, j64, d)
		}
	}
}
