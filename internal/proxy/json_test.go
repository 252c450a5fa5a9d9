package proxy

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"env2vec/internal/anomaly"
	"env2vec/internal/core"
	"env2vec/internal/dataset"
	"env2vec/internal/envmeta"
	"env2vec/internal/obs"
	"env2vec/internal/quality"
	"env2vec/internal/serve"
)

// TestProxiedReplyGolden: a JSON reply through the proxy is what it was
// before the backend rendered replies by hand and the proxy set headers
// directly — its body byte for byte, and its Content-Type, X-Request-Id and
// X-Backend headers. The backend is a real server with verdicts on, asked
// about an environment whose rendering JSON escapes; what varies from run
// to run (times, durations, span ids, batch ids) is masked before the
// comparison with testdata/proxied_reply_golden.txt, written by the build
// before that change.
func TestProxiedReplyGolden(t *testing.T) {
	env := envmeta.Environment{Testbed: "tb<1>", SUT: "fw&co", Testcase: "load", Build: "B1"}
	schema := envmeta.NewSchema()
	schema.Observe(env)
	schema.Freeze()
	s := serve.New(serve.Config{
		MaxBatch: 8, Workers: 1, MinCalibration: 1, Detect: &anomaly.Config{Gamma: 2},
		Quality: &quality.Config{}, Trace: obs.TraceStoreConfig{SampleRate: -1, SlowMS: -1},
	})
	defer s.Close()
	s.SetBundle(&serve.Bundle{
		Name: "test", Version: 3,
		Model:    core.New(core.Config{In: 3, Hidden: 8, GRUHidden: 4, EmbedDim: 3, Window: 2, Seed: 5}, schema),
		Schema:   schema,
		YScale:   dataset.YScaler{Mu: 50, Sigma: 10},
		Baseline: &quality.Baseline{Mu: 0, Sigma: 5, Samples: 100},
	})
	backend := httptest.NewServer(s)
	defer backend.Close()
	p := New(Config{Backends: []string{backend.URL}, Trace: obs.TraceStoreConfig{SampleRate: -1, SlowMS: -1}})
	defer p.Close()

	var got bytes.Buffer
	for i, actual := range []string{"", `,"actual":49.5`, `,"actual":120.25`} {
		body := `{"cf":[0.5,-1,2],"window":[50,51.5],"testbed":"tb<1>","sut":"fw&co","testcase":"load","build":"B1","chain_id":"c-1"` + actual + `}`
		req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader([]byte(body)))
		req.Header.Set(obs.RequestIDHeader, fmt.Sprintf("golden%010d", i))
		req.Header.Set(obs.TraceParentHeader, "00-ffffffffffffffff-00000000000000aa-01")
		w := httptest.NewRecorder()
		p.ServeHTTP(w, req)
		fmt.Fprintf(&got, "%d\nContent-Type: %s\nX-Request-Id: %s\nX-Backend: %s\n%s", w.Code, w.Header().Get("Content-Type"),
			w.Header().Get(obs.RequestIDHeader), strings.Replace(w.Header().Get("X-Backend"), strings.TrimPrefix(backend.URL, "http://"), "the backend", 1), w.Body.Bytes())
	}
	masked := maskTimes(got.Bytes())
	want, err := os.ReadFile(filepath.Join("testdata", "proxied_reply_golden.txt")) // not to be regenerated
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(masked, want) {
		t.Fatalf("proxied replies are\n%s\nthe golden holds\n%s", masked, want)
	}
}

// maskTimes blanks what a reply's trace block holds that differs from run
// to run: start times, durations, span ids (random per request) and batch
// ids (per server).
func maskTimes(b []byte) []byte {
	for _, m := range []struct{ re, with string }{
		{`"start_unix_us":\d+`, `"start_unix_us":0`},
		{`"duration_ms":[^,}]+`, `"duration_ms":0`},
		{`"(span_id|parent_id)":"[0-9a-f]{16}"`, `"$1":"x"`},
		{`"batch_id":"\d+"`, `"batch_id":"x"`},
	} {
		b = regexp.MustCompile(m.re).ReplaceAll(b, []byte(m.with))
	}
	return b
}

// TestProxyJSONAllocs gates the proxy's JSON hop: one /predict through
// ServeHTTP to a backend that answers every request with the same canned
// bytes and allocates nothing, with traces sampled out, so the count is the
// proxy's — its handler and the net/http transport that carries the POST
// and reads the answer. The request and the response writer are reused.
// The build counted 84.2 to 84.9; before the proxy set canonical header keys
// directly, read replies into pooled buffers, posted on URLs parsed once and
// hashed no rendered environment, the same procedure counted 101.5.
func TestProxyJSONAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; gate runs in the non-race pass")
	}
	reply := []byte(`{"prediction":50.25,"model":"test","model_version":1,"batch_size":1,"trace":{"request_id":"0123456789abcdef","spans":[]}}` + "\n")
	p := New(Config{
		Backends: []string{cannedHTTP(t, reply)},
		Trace:    obs.TraceStoreConfig{SampleRate: -1, SlowMS: -1}, Timeout: 5 * time.Second,
	})
	t.Cleanup(p.Close)
	body := predictBody("B1")
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/predict", rd)
	req.Header.Set(obs.RequestIDHeader, "0123456789abcdef")
	w := &reusedWriter{h: http.Header{}}
	run := func() {
		rd.Reset(body)
		req.Body = io.NopCloser(rd)
		clear(w.h)
		w.code = 0
		p.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("predict: status %d", w.code)
		}
	}
	for i := 0; i < 50; i++ { // connections, buffers and pools reach their size
		run()
	}
	const requests = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < requests; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	cost := float64(after.Mallocs-before.Mallocs) / requests
	t.Logf("a JSON request through the proxy: %.2f objects", cost)
	if cost > proxyJSONAllocBudget {
		t.Errorf("a JSON request through the proxy costs %.2f objects, budget %d", cost, proxyJSONAllocBudget)
	}
}

// proxyJSONAllocBudget is TestProxyJSONAllocs' bound, pinned from the build
// plus about a tenth.
const proxyJSONAllocBudget = 93

// reusedWriter is a ResponseWriter that keeps nothing but the status.
type reusedWriter struct {
	h    http.Header
	code int
}

func (w *reusedWriter) Header() http.Header { return w.h }

func (w *reusedWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *reusedWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return len(b), nil
}

// cannedHTTP serves HTTP/1.1 keep-alive connections that answer every
// request, whatever it is, with reply as a 200 application/json body, and
// returns its base URL. It reads each request's head line by line and skips
// its body by Content-Length, allocating nothing per request.
func cannedHTTP(t *testing.T, reply []byte) string {
	t.Helper()
	answer := []byte("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nX-Request-Id: 0123456789abcdef\r\nContent-Length: " +
		strconv.Itoa(len(reply)) + "\r\n\r\n" + string(reply))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					length := 0
					for {
						line, err := br.ReadSlice('\n')
						if err != nil {
							return
						}
						if len(bytes.TrimSpace(line)) == 0 {
							break
						}
						if k, v, ok := bytes.Cut(line, []byte(":")); ok && bytes.EqualFold(k, []byte("Content-Length")) {
							for _, c := range bytes.TrimSpace(v) {
								length = 10*length + int(c-'0')
							}
						}
					}
					if _, err := br.Discard(length); err != nil {
						return
					}
					if _, err := conn.Write(answer); err != nil {
						return
					}
				}
			}()
		}
	}()
	return "http://" + ln.Addr().String()
}

// TestDeclaredLengthIsNotPresized: a request that declares a body of the
// whole cap and sends none costs the proxy a few KiB, not the cap — the
// body buffer is sized from Content-Length only up to maxPresizedBody, and
// grows past it only as bytes arrive.
func TestDeclaredLengthIsNotPresized(t *testing.T) {
	p := New(Config{Backends: []string{"http://127.0.0.1:1"}, Trace: obs.TraceStoreConfig{SampleRate: -1, SlowMS: -1}})
	t.Cleanup(p.Close)
	req := httptest.NewRequest(http.MethodPost, "/predict", nil)
	req.ContentLength = p.cfg.MaxBodyBytes
	w := &reusedWriter{h: http.Header{}}
	const requests = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < requests; i++ {
		req.Body = io.NopCloser(strings.NewReader(""))
		clear(w.h)
		w.code = 0
		p.ServeHTTP(w, req)
		if w.code != http.StatusBadRequest {
			t.Fatalf("empty body declared %d bytes long: status %d, want 400", req.ContentLength, w.code)
		}
	}
	runtime.ReadMemStats(&after)
	perRequest := (after.TotalAlloc - before.TotalAlloc) / requests
	t.Logf("a request declaring %d bytes and sending none: %d bytes allocated", req.ContentLength, perRequest)
	// The presized buffer plus the handler's own objects: about 74 KiB, twice
	// that under the race detector, against the cap's 4 MiB before.
	if perRequest > 4*maxPresizedBody {
		t.Errorf("a request declaring %d bytes and sending none allocated %d bytes, want at most %d",
			req.ContentLength, perRequest, 4*maxPresizedBody)
	}
}
