package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// exposition renders a registry's page, where a histogram's buckets and
// exemplars are read.
func exposition(t *testing.T, reg *Registry) string {
	t.Helper()
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// wantLines fails unless every line is on the page, whole.
func wantLines(t *testing.T, page string, lines ...string) {
	t.Helper()
	for _, l := range lines {
		if !strings.Contains("\n"+page, "\n"+l+"\n") {
			t.Fatalf("exposition missing line %q:\n%s", l, page)
		}
	}
}

func TestHistogramBucketsSumCountMax(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("demo", "d", []float64{1, 10, 100}, nil)
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-556.5) > 1e-9 {
		t.Fatalf("sum %v, want 556.5", h.Sum())
	}
	if h.Max() != 500 {
		t.Fatalf("max %v, want 500", h.Max())
	}
	// 0.5 and 1 land in le=1; 5 in le=10; 50 in le=100; 500 overflows.
	wantLines(t, exposition(t, reg),
		`demo_bucket{le="1"} 2`, `demo_bucket{le="10"} 3`, `demo_bucket{le="100"} 4`, `demo_bucket{le="+Inf"} 5`,
		"demo_sum 556.5", "demo_count 5")
}

// TestHistogramRingWrapAround replaces the old latencyRing coverage: after
// more than ringSize samples, percentiles must reflect only the most recent
// window, not the evicted prefix.
func TestHistogramRingWrapAround(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("demo", "d", DefLatencyBuckets, nil)
	// Fill the ring entirely with large values, then overwrite every slot
	// with small ones; the large prefix must be fully evicted.
	for i := 0; i < ringSize; i++ {
		h.Observe(1000)
	}
	if p99 := h.Quantile(0.99); p99 != 1000 {
		t.Fatalf("pre-wrap p99 %v, want 1000", p99)
	}
	for i := 0; i < ringSize; i++ {
		h.Observe(1)
	}
	if p99 := h.Quantile(0.99); p99 != 1 {
		t.Fatalf("post-wrap p99 %v, want 1 (old samples not evicted)", p99)
	}
	if h.Count() != 2*ringSize {
		t.Fatalf("count %d, want %d (buckets must NOT wrap)", h.Count(), 2*ringSize)
	}
	// Bucket counts keep full history even though the ring forgot it.
	wantLines(t, exposition(t, reg), `demo_bucket{le="1"} 2048`, `demo_bucket{le="+Inf"} 4096`)
}

// TestHistogramConcurrentRecordAndQuantile races writers against readers;
// run under -race (docs/reproduce.sh does) to prove the locking.
func TestHistogramConcurrentRecordAndQuantile(t *testing.T) {
	h := NewHistogram(DefLatencyBuckets)
	var wg sync.WaitGroup
	const writers, perWriter = 8, 1000
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(float64(w*perWriter+i) / 100)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			if h.Count() != writers*perWriter {
				t.Fatalf("count %d, want %d", h.Count(), writers*perWriter)
			}
			return
		default:
			_ = h.Quantile(0.99)
			_ = h.Quantiles(0.5, 0.99)
			_ = h.Max()
		}
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(1) // must not panic
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram should read as empty")
	}
}

// TestHistogramExemplars: each bucket's exemplar is the last request id
// observed into it, rendered on the exposition page beside its count.
func TestHistogramExemplars(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("demo", "d", []float64{1, 10, 100}, nil)
	h.Observe(0.5) // no exemplar
	if page := exposition(t, reg); strings.Contains(page, "request_id") {
		t.Fatalf("exemplar before any ObserveExemplar:\n%s", page)
	}
	h.ObserveExemplar(5, "req-a")
	h.ObserveExemplar(7, "req-b") // same bucket: last writer wins
	h.ObserveExemplar(500, "req-slow")
	// ObserveExemplar with an empty id records the sample but keeps the
	// previous exemplar.
	h.ObserveExemplar(6, "")
	wantLines(t, exposition(t, reg),
		`demo_bucket{le="1"} 1`,
		`demo_bucket{le="10"} 4 # {request_id="req-b"} 7`,
		`demo_bucket{le="100"} 4`,
		`demo_bucket{le="+Inf"} 5 # {request_id="req-slow"} 500`)
	var nilH *Histogram
	nilH.ObserveExemplar(1, "x") // must not panic
}

func TestHistogramExemplarExposition(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("demo_latency_ms", "demo", []float64{1, 10}, nil)
	h.ObserveExemplar(5, "abc123")
	// Buckets without exemplars stay plain.
	wantLines(t, exposition(t, reg), `demo_latency_ms_bucket{le="10"} 1 # {request_id="abc123"} 5`, `demo_latency_ms_bucket{le="1"} 0`)
}
