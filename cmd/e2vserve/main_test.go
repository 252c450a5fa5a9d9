package main

import (
	"net/http/httptest"

	"env2vec/internal/modelserver"
	"env2vec/internal/nn"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// freePort reserves an ephemeral port and releases it for the daemon.
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port
}

// scrape polls url until the daemon answers, returning the body.
func scrape(t *testing.T, url string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK {
				return string(body)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("scraping %s never succeeded (last err %v)", url, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func buildServe(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "e2vserve")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func TestServeRequiresOneSource(t *testing.T) {
	bin := buildServe(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "one of -model, -registry, or -registry-dir is required"},
		{[]string{"-model", "x.model", "-registry", "http://localhost:8080"}, "-model is exclusive"},
		{[]string{"-model", "x.model", "-registry-dir", "/tmp/mirror"}, "-model is exclusive"},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 1 {
			t.Fatalf("args %v: err=%v out=%q", tc.args, err, out)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Fatalf("args %v: %q", tc.args, out)
		}
	}
}

func TestServeRejectsMissingSnapshot(t *testing.T) {
	bin := buildServe(t)
	out, err := exec.Command(bin, "-model", filepath.Join(t.TempDir(), "nope.model")).CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("missing snapshot: err=%v out=%q", err, out)
	}
}

// TestServeMetricsScrape is the end-to-end acceptance check: a freshly
// booted daemon (no model yet — the registry is unreachable) serves a
// Prometheus /metrics page carrying the serve instrumentation.
func TestServeMetricsScrape(t *testing.T) {
	bin := buildServe(t)
	port := freePort(t)
	cmd := exec.Command(bin,
		"-registry", "http://127.0.0.1:1", // nothing listens; polls fail transiently
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-poll", "100ms", "-log-level", "error")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	}()

	body := scrape(t, fmt.Sprintf("http://127.0.0.1:%d/metrics", port))
	for _, want := range []string{
		"# TYPE env2vec_serve_requests_total counter",
		"env2vec_serve_queue_capacity 256",
		`env2vec_serve_stage_latency_ms_bucket{stage="forward"`,
		"modelserver_watcher_polls_total",
		"# TYPE env2vec_quality_observations_total counter",
		"env2vec_quality_alarms_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics page missing %q:\n%s", want, body)
		}
	}
}

// TestServeRegistryMirror boots the daemon in -registry-dir mirror mode
// against a live primary: the replica counters appear on /metrics, the
// mirror directory's durable log fills, and a restarted daemon
// warm-starts from the mirror with the primary gone.
func TestServeRegistryMirror(t *testing.T) {
	reg := modelserver.NewRegistry()
	primary := httptest.NewServer(&modelserver.Handler{Registry: reg})
	defer primary.Close()
	p := nn.NewParam("w", 2, 2)
	if _, err := reg.Publish("env2vec", nn.TakeSnapshot([]*nn.Param{p}, nil), 1); err != nil {
		t.Fatal(err)
	}

	bin := buildServe(t)
	mirror := filepath.Join(t.TempDir(), "mirror")
	start := func(extra ...string) *exec.Cmd {
		port := freePort(t)
		args := append([]string{
			"-registry-dir", mirror,
			"-addr", fmt.Sprintf("127.0.0.1:%d", port),
			"-poll", "100ms", "-log-level", "error",
		}, extra...)
		cmd := exec.Command(bin, args...)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		})
		deadline := time.Now().Add(10 * time.Second)
		for {
			body := scrape(t, fmt.Sprintf("http://127.0.0.1:%d/metrics", port))
			if strings.Contains(body, "modelserver_replica_syncs_total") || len(extra) == 0 {
				if strings.Contains(body, "env2vec_registry_recovered_records 0") {
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("daemon never exposed registry metrics:\n%s", body)
			}
			time.Sleep(50 * time.Millisecond)
		}
		return cmd
	}

	first := start("-registry", primary.URL)
	// The mirror converges: its log holds the published version.
	deadline := time.Now().Add(10 * time.Second)
	for {
		local, err := modelserver.OpenRegistry(modelserver.WithDir(mirror))
		if err == nil {
			v, lerr := local.Latest("env2vec")
			local.Close()
			if lerr == nil && v.Number == 1 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("mirror never converged (last err %v)", err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Restart without the primary: the daemon boots from the mirror alone.
	_ = first.Process.Kill()
	_, _ = first.Process.Wait()
	primary.Close()
	start()
}
