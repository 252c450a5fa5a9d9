package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"env2vec/internal/quality"
)

// postJSON posts raw bytes to path and returns the status plus body.
func postRaw(t *testing.T, url string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp.StatusCode, sb.String()
}

func TestBodyLimits(t *testing.T) {
	s := New(Config{MaxBatch: 4, QueueDepth: 16, Workers: 1, MaxBodyBytes: 1 << 10,
		Quality: &quality.Config{Gamma: 3, Window: 8, MinSamples: 2, ExceedRate: 0.5}})
	defer s.Close()
	s.SetBundle(testBundle(1, 1))
	srv := httptest.NewServer(s)
	defer srv.Close()

	rng := rand.New(rand.NewSource(1))
	req := randomRequest(rng)
	good, _ := json.Marshal(req)
	if code, body := postRaw(t, srv.URL+"/predict", good); code != http.StatusOK {
		t.Fatalf("in-bounds predict: %d %s", code, body)
	}

	// One byte past the cap → 413, on both ingest handlers.
	huge := append(append([]byte(`{"pad":"`), bytes.Repeat([]byte("x"), 2<<10)...), []byte(`"}`)...)
	if code, _ := postRaw(t, srv.URL+"/predict", huge); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized predict: %d, want 413", code)
	}
	if code, _ := postRaw(t, srv.URL+"/observe", huge); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized observe: %d, want 413", code)
	}

	// A negative cap is the default cap, not none: it used to disable the
	// limit, so `e2vserve -max-body -1` buffered any body.
	uncapped := New(Config{MaxBatch: 4, QueueDepth: 16, Workers: 1, MaxBodyBytes: -1})
	defer uncapped.Close()
	uncapped.SetBundle(testBundle(1, 1))
	usrv := httptest.NewServer(uncapped)
	defer usrv.Close()
	past := append(append([]byte(`{"pad":"`), bytes.Repeat([]byte("x"), int(DefaultMaxBodyBytes))...), []byte(`"}`)...)
	if code, _ := postRaw(t, usrv.URL+"/predict", past); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("MaxBodyBytes -1, body past %d bytes: %d, want 413", DefaultMaxBodyBytes, code)
	}
}

func TestStrictDecoding(t *testing.T) {
	s := New(Config{MaxBatch: 4, QueueDepth: 16, Workers: 1,
		Quality: &quality.Config{Gamma: 3, Window: 8, MinSamples: 2, ExceedRate: 0.5}})
	defer s.Close()
	s.SetBundle(testBundle(1, 1))
	srv := httptest.NewServer(s)
	defer srv.Close()

	rng := rand.New(rand.NewSource(2))
	req := randomRequest(rng)
	good, _ := json.Marshal(req)

	// Unknown fields are a client bug (typo'd key silently dropping a
	// field), not tolerated slack.
	unknown := append([]byte(`{"cff":[1,2,3],`), good[1:]...)
	if code, body := postRaw(t, srv.URL+"/predict", unknown); code != http.StatusBadRequest {
		t.Fatalf("unknown field: %d %s, want 400", code, body)
	}

	// Trailing garbage after the JSON value likewise.
	trailing := append(append([]byte(nil), good...), []byte(`{"again":true}`)...)
	if code, body := postRaw(t, srv.URL+"/predict", trailing); code != http.StatusBadRequest {
		t.Fatalf("trailing garbage: %d %s, want 400", code, body)
	}
	if code, _ := postRaw(t, srv.URL+"/observe", []byte(`{"request_id":"x"}junk`)); code != http.StatusBadRequest {
		t.Fatalf("observe trailing garbage: want 400")
	}

	// The well-formed request still round-trips after the rejects.
	if code, body := postRaw(t, srv.URL+"/predict", good); code != http.StatusOK {
		t.Fatalf("clean predict after rejects: %d %s", code, body)
	}
}

// TestDoBatch checks the wire path's entry point: per-item validation and
// shedding, predictions matching the single-request path exactly.
func TestDoBatch(t *testing.T) {
	s := New(Config{MaxBatch: 8, QueueDepth: 64, Workers: 2})
	defer s.Close()
	b := testBundle(5, 1)
	s.SetBundle(b)

	rng := rand.New(rand.NewSource(3))
	reqs := make([]*Request, 6)
	for i := range reqs {
		reqs[i] = randomRequest(rng)
	}
	bad := randomRequest(rng)
	bad.CF = nil // fails validation
	reqs = append(reqs, bad)

	results := s.DoBatch(reqs)
	if len(results) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(results), len(reqs))
	}
	for i, res := range results[:6] {
		if res.Err != nil {
			t.Fatalf("item %d: %v", i, res.Err)
		}
		if want := directPredict(b, reqs[i]); math.Abs(res.Resp.Prediction-want) > 1e-9 {
			t.Fatalf("item %d: %v, want %v", i, res.Resp.Prediction, want)
		}
		if reqs[i].RequestID == "" {
			t.Fatalf("item %d: no request id assigned", i)
		}
	}
	last := results[len(results)-1]
	if last.Err == nil || last.Code != http.StatusBadRequest {
		t.Fatalf("invalid item: code=%d err=%v, want 400", last.Code, last.Err)
	}
}

// TestDoBatchRejectsNonFinite: a NaN or ±Inf input — which the binary
// protocol can carry and JSON cannot — is refused at admission with a typed
// 400, alone. At the parent commit it reached the forward pass and came back
// as a NaN prediction; behind a clamping kernel it would come back finite
// and wrong. The 31 neighbours of the poisoned item answer bit-equal to the
// same frame without it, in both precisions.
func TestDoBatchRejectsNonFinite(t *testing.T) {
	actual := math.Inf(-1)
	poisons := map[string]func(*Request){
		"NaN window":  func(r *Request) { r.Window[1] = math.NaN() },
		"+Inf cf":     func(r *Request) { r.CF[0] = math.Inf(1) },
		"-Inf actual": func(r *Request) { r.Actual = &actual },
	}
	for _, prec := range []Precision{PrecisionFloat64, PrecisionFloat32} {
		b := testBundle(5, 1)
		if err := b.SetPrecision(prec); err != nil {
			t.Fatal(err)
		}
		s := New(Config{MaxBatch: 32, QueueDepth: 64, Workers: 1})
		s.SetBundle(b)

		rng := rand.New(rand.NewSource(9))
		frame := make([]*Request, 32)
		for i := range frame {
			frame[i] = randomRequest(rng)
		}
		clone := func() []*Request {
			out := make([]*Request, len(frame))
			for i, r := range frame {
				cp := *r
				cp.CF = append([]float64(nil), r.CF...)
				cp.Window = append([]float64(nil), r.Window...)
				out[i] = &cp
			}
			return out
		}
		clean := s.DoBatch(clone())
		for name, poison := range poisons {
			const bad = 13
			reqs := clone()
			poison(reqs[bad])
			for i, res := range s.DoBatch(reqs) {
				if i == bad {
					if res.Code != http.StatusBadRequest || !errors.Is(res.Err, ErrNonFinite) {
						t.Fatalf("%s/%s: poisoned item: code=%d err=%v, want 400 ErrNonFinite", prec, name, res.Code, res.Err)
					}
					continue
				}
				if res.Err != nil {
					t.Fatalf("%s/%s: neighbour %d: %v", prec, name, i, res.Err)
				}
				if got, want := res.Resp.Prediction, clean[i].Resp.Prediction; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s/%s: neighbour %d answered %v, %v without the poisoned item", prec, name, i, got, want)
				}
			}
		}
		s.Close()
	}
}
