package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
)

// ringSize bounds the window of exact samples a histogram retains for
// percentile estimates — the successor of the old serve latencyRing.
const ringSize = 2048

// DefLatencyBuckets are millisecond upper bounds suitable for request
// latencies from tens of microseconds to seconds.
var DefLatencyBuckets = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500}

// DefSecondsBuckets are second upper bounds suitable for slow operations
// such as training epochs.
var DefSecondsBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 120}

// Histogram is a fixed-bucket histogram that additionally retains the most
// recent ringSize raw samples, so it exports Prometheus bucket counts AND
// answers exact percentile queries over the recent window. Each bucket also
// remembers the last exemplar observed into it (see ObserveExemplar). All
// methods are nil-safe and safe for concurrent use.
type Histogram struct {
	mu        sync.Mutex
	bounds    []float64 // ascending upper bounds; +Inf implicit
	counts    []uint64  // len(bounds)+1
	exemplars []exemplarSlot
	sum       float64
	count     uint64
	max       float64
	ring      [ringSize]float64
	next      int
	filled    int
}

// exemplarSlot is one bucket's exemplar, the request id copied into bytes
// the slot owns and reuses: ids arrive as sub-slices of decoded wire frames,
// and a slot that kept the string would keep its whole frame alive.
type exemplarSlot struct {
	value float64
	id    []byte
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]uint64, len(bs)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) { h.ObserveExemplar(v, "") }

// ObserveExemplar records one sample and, when requestID is non-empty,
// stores it as the bucket's exemplar (last writer wins), so the bucket
// remembers the most recent request that landed in it.
func (h *Histogram) ObserveExemplar(v float64, requestID string) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	h.counts[i]++
	if requestID != "" {
		if h.exemplars == nil {
			h.exemplars = make([]exemplarSlot, len(h.bounds)+1)
		}
		h.exemplars[i].value = v
		h.exemplars[i].id = append(h.exemplars[i].id[:0], requestID...)
	}
	h.sum += v
	h.count++
	if v > h.max {
		h.max = v
	}
	h.ring[h.next] = v
	h.next = (h.next + 1) % ringSize
	if h.filled < ringSize {
		h.filled++
	}
	h.mu.Unlock()
}

// Max returns the largest observation seen (0 when empty or nil).
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile returns the exact q-quantile (0 ≤ q ≤ 1) over the retained
// sample window, 0 when empty. It matches the old latencyRing estimator:
// the value at index ⌊q·(n−1)⌋ of the sorted window.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	n := h.filled
	buf := make([]float64, n)
	copy(buf, h.ring[:n])
	h.mu.Unlock()
	if n == 0 {
		return 0
	}
	sort.Float64s(buf)
	i := int(q * float64(n-1))
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return buf[i]
}

// Quantiles returns several quantiles from one snapshot of the window.
func (h *Histogram) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if h == nil {
		return out
	}
	h.mu.Lock()
	n := h.filled
	buf := make([]float64, n)
	copy(buf, h.ring[:n])
	h.mu.Unlock()
	if n == 0 {
		return out
	}
	sort.Float64s(buf)
	for j, q := range qs {
		i := int(q * float64(n-1))
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		out[j] = buf[i]
	}
	return out
}

// write renders the histogram in Prometheus exposition form: cumulative
// _bucket{le=...} series, then _sum and _count. Buckets holding an exemplar
// get an OpenMetrics-style `# {request_id="..."} value` suffix, so a scrape
// links each hot bucket to the last concrete request that landed in it.
func (h *Histogram) write(w io.Writer, name string, lbls Labels) error {
	h.mu.Lock()
	counts := append([]uint64(nil), h.counts...)
	suffixes := make([]string, len(counts))
	for i, ex := range h.exemplars {
		if len(ex.id) > 0 {
			suffixes[i] = fmt.Sprintf(" # {request_id=%q} %s", ex.id, formatFloat(ex.value))
		}
	}
	sum, count := h.sum, h.count
	h.mu.Unlock()
	cum := uint64(0)
	for i, b := range h.bounds { // fixed at construction
		cum += counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n", name, lbls.render("le", formatFloat(b)), cum, suffixes[i]); err != nil {
			return err
		}
	}
	cum += counts[len(h.bounds)]
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n", name, lbls.render("le", "+Inf"), cum, suffixes[len(h.bounds)]); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, lbls.render(), formatFloat(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, lbls.render(), count)
	return err
}

func floatBits(v float64) uint64     { return math.Float64bits(v) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }
