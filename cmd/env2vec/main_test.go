package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"env2vec/internal/modelserver"
	"env2vec/internal/nn"
)

// buildCLI compiles the command in the current directory into a temp dir and
// returns the binary path.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "env2vec")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func runCLI(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("run %v: %v\n%s", args, err, out)
		}
		code = ee.ExitCode()
	}
	return string(out), code
}

func TestCLIUsageAndFlagErrors(t *testing.T) {
	bin := buildCLI(t)

	out, code := runCLI(t, bin)
	if code != 2 || !strings.Contains(out, "usage:") {
		t.Fatalf("no args: code=%d out=%q", code, out)
	}
	out, code = runCLI(t, bin, "frobnicate")
	if code != 2 || !strings.Contains(out, "usage:") {
		t.Fatalf("unknown subcommand: code=%d out=%q", code, out)
	}
	out, code = runCLI(t, bin, "generate")
	if code != 1 || !strings.Contains(out, "-out is required") {
		t.Fatalf("generate without -out: code=%d out=%q", code, out)
	}
	out, code = runCLI(t, bin, "train")
	if code != 1 || !strings.Contains(out, "-data is required") {
		t.Fatalf("train without -data: code=%d out=%q", code, out)
	}
	out, code = runCLI(t, bin, "detect", "-data", "x")
	if code != 1 || !strings.Contains(out, "-exec are required") {
		t.Fatalf("detect without -exec: code=%d out=%q", code, out)
	}
	out, code = runCLI(t, bin, "serve")
	if code != 1 || !strings.Contains(out, "need -model, -registry-dir, or -replica-of") {
		t.Fatalf("serve without a source: code=%d out=%q", code, out)
	}
	out, code = runCLI(t, bin, "serve", "-model", "x", "-replica-of", "http://localhost:1")
	if code != 1 || !strings.Contains(out, "replicas are read-only") {
		t.Fatalf("serve -model with -replica-of: code=%d out=%q", code, out)
	}
}

func TestCLIGenerateWritesCorpus(t *testing.T) {
	bin := buildCLI(t)
	dir := filepath.Join(t.TempDir(), "corpus")
	out, code := runCLI(t, bin, "generate", "-out", dir, "-chains", "2", "-steps", "12", "-seed", "7")
	if code != 0 {
		t.Fatalf("generate: code=%d out=%q", code, out)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no CSVs written to %s (err=%v)", dir, err)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil || !strings.Contains(string(data), ",") {
		t.Fatalf("unreadable CSV %s: %v", matches[0], err)
	}
}

// TestCLIRegistryDaemonReplication smoke-tests the registry daemon mode:
// a durable primary daemon accepts an HTTP publish, a -replica-of daemon
// converges on it, and a restarted primary replays its disk instead of
// coming up empty.
func TestCLIRegistryDaemonReplication(t *testing.T) {
	bin := buildCLI(t)
	primaryDir := t.TempDir()
	primaryPort, replicaPort := freePort(t), freePort(t)
	primaryURL := fmt.Sprintf("http://127.0.0.1:%d", primaryPort)
	replicaURL := fmt.Sprintf("http://127.0.0.1:%d", replicaPort)

	startDaemon := func(args ...string) *exec.Cmd {
		cmd := exec.Command(bin, args...)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		})
		return cmd
	}
	awaitVersion := func(base string, wantVersion int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			latest, _, _, err := (&modelserver.Client{BaseURL: base}).FetchVersions("", 0)
			if err == nil && latest["env2vec"] == wantVersion {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never reached env2vec v%d (last err %v)", base, wantVersion, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	primary := startDaemon("serve", "-registry-dir", primaryDir, "-addr", fmt.Sprintf("127.0.0.1:%d", primaryPort))
	awaitVersion(primaryURL, 0)

	// Publish over HTTP, like the training pipeline would.
	p := nn.NewParam("w", 2, 2)
	snap := nn.TakeSnapshot([]*nn.Param{p}, nil)
	client := &modelserver.Client{BaseURL: primaryURL}
	if v, err := client.Publish("env2vec", snap); err != nil || v != 1 {
		t.Fatalf("publish: %d %v", v, err)
	}

	// A follower daemon converges.
	startDaemon("serve", "-replica-of", primaryURL, "-sync", "100ms", "-addr", fmt.Sprintf("127.0.0.1:%d", replicaPort))
	awaitVersion(replicaURL, 1)
	if _, ver, err := (&modelserver.Client{BaseURL: replicaURL}).FetchLatest("env2vec"); err != nil || ver != 1 {
		t.Fatalf("replica fetch: v%d %v", ver, err)
	}
	// The follower's HTTP surface is read-only: a local publish would
	// collide with the primary's numbering.
	if _, err := (&modelserver.Client{BaseURL: replicaURL}).Publish("env2vec", snap); err == nil ||
		!strings.Contains(err.Error(), "publish to the primary") {
		t.Fatalf("replica accepted a publish: %v", err)
	}

	// Kill the primary and restart it on its directory: the publish survives.
	_ = primary.Process.Kill()
	_, _ = primary.Process.Wait()
	startDaemon("serve", "-registry-dir", primaryDir, "-addr", fmt.Sprintf("127.0.0.1:%d", primaryPort))
	awaitVersion(primaryURL, 1)
}

// freePort reserves an ephemeral port and releases it for a daemon.
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
