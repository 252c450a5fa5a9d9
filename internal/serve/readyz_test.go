package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// Liveness vs readiness: /readyz must gate on "can actually take traffic"
// (bundle loaded, queue below the shed threshold) while /healthz keeps its
// pre-split meaning for old health checkers.
func TestReadyzGatesOnBundle(t *testing.T) {
	s := New(Config{MaxBatch: 4, QueueDepth: 8, Workers: 1})
	t.Cleanup(s.Close)

	get := func(path string) int {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		return w.Code
	}

	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before SetBundle: %d, want 503", code)
	}
	s.SetBundle(testBundle(1, 1))
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz with a bundle: %d, want 200", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz with a bundle: %d, want 200", code)
	}
}

func TestReadyDistinguishesOverloadFromNoModel(t *testing.T) {
	s := New(Config{MaxBatch: 4, QueueDepth: 8, Workers: 1})
	t.Cleanup(s.Close)

	if err := s.Ready(); err != ErrNoModel {
		t.Fatalf("Ready without a bundle = %v, want ErrNoModel", err)
	}
	s.SetBundle(testBundle(1, 1))
	if err := s.Ready(); err != nil {
		t.Fatalf("Ready with a bundle = %v, want nil", err)
	}
	// Shrink the configured depth under the (empty) queue's length so the
	// saturation branch is reachable without racing the workers.
	s.cfg.QueueDepth = 0
	if err := s.Ready(); err != ErrOverloaded {
		t.Fatalf("Ready at the shed threshold = %v, want ErrOverloaded", err)
	}
}
