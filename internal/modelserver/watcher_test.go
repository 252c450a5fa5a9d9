package modelserver

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"env2vec/internal/nn"
)

// countingHandler wraps the registry handler so tests can observe how many
// GETs actually transferred a snapshot body versus short-circuited with 304.
type countingHandler struct {
	inner        http.Handler
	gets, not304 atomic.Int64
}

func (h *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		h.gets.Add(1)
		rec := httptest.NewRecorder()
		h.inner.ServeHTTP(rec, r)
		if rec.Code != http.StatusNotModified {
			h.not304.Add(1)
		}
		for k, vs := range rec.Header() {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
		return
	}
	h.inner.ServeHTTP(w, r)
}

func TestWatcherNoVersionsIsError(t *testing.T) {
	srv := httptest.NewServer(&Handler{Registry: NewRegistry()})
	defer srv.Close()

	updates := 0
	w := &Watcher{
		Client:   &Client{BaseURL: srv.URL},
		Name:     "env2vec",
		OnUpdate: func(*nn.Snapshot, int) { updates++ },
	}
	changed, err := w.Poll()
	if err == nil {
		t.Fatalf("polling an empty registry should error (404)")
	}
	if changed || updates != 0 {
		t.Fatalf("no update should be delivered on error: changed=%v updates=%d", changed, updates)
	}
	if w.version != 0 {
		t.Fatalf("version advanced on error: %d", w.version)
	}
}

func TestWatcherUnchangedVersionShortCircuits(t *testing.T) {
	reg := NewRegistry()
	h := &countingHandler{inner: &Handler{Registry: reg}}
	srv := httptest.NewServer(h)
	defer srv.Close()

	c := &Client{BaseURL: srv.URL}
	if _, err := c.Publish("env2vec", demoSnapshot(1)); err != nil {
		t.Fatal(err)
	}

	var got []int
	w := &Watcher{Client: c, Name: "env2vec", OnUpdate: func(_ *nn.Snapshot, ver int) { got = append(got, ver) }}

	changed, err := w.Poll()
	if err != nil || !changed {
		t.Fatalf("first poll should deliver v1: changed=%v err=%v", changed, err)
	}
	// Two more polls with the model unchanged: no re-delivery, and the
	// registry must answer them with 304 (no snapshot body transferred).
	for i := 0; i < 2; i++ {
		changed, err = w.Poll()
		if err != nil || changed {
			t.Fatalf("unchanged poll %d: changed=%v err=%v", i, changed, err)
		}
	}
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("OnUpdate calls wrong: %v", got)
	}
	if g, full := h.gets.Load(), h.not304.Load(); g != 3 || full != 1 {
		t.Fatalf("expected 3 GETs with exactly 1 full download, got %d/%d", g, full)
	}

	// A re-publish is picked up on the next poll.
	if _, err := c.Publish("env2vec", demoSnapshot(2)); err != nil {
		t.Fatal(err)
	}
	changed, err = w.Poll()
	if err != nil || !changed {
		t.Fatalf("poll after republish: changed=%v err=%v", changed, err)
	}
	if w.version != 2 || len(got) != 2 || got[1] != 2 {
		t.Fatalf("v2 not delivered: version=%d updates=%v", w.version, got)
	}
}

func TestWatcherRequiresClientAndName(t *testing.T) {
	if _, err := (&Watcher{}).Poll(); err == nil {
		t.Fatalf("misconfigured watcher should error")
	}
}
