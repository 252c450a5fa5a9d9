package serve

import (
	"strconv"

	"env2vec/internal/obs"
)

// batchBounds are the upper bounds of the batch-size histogram buckets;
// the overflow bucket is open-ended. They double as the Prometheus le
// bounds of env2vec_serve_batch_size.
var batchBounds = []float64{1, 2, 4, 8, 16, 32, 64}

// Stats is the /statz payload. The counters and histograms behind it are
// the same obs metrics served at /metrics; /statz is their JSON projection
// and stays backward-compatible with the pre-obs shape.
type Stats struct {
	Model        string `json:"model"`
	ModelVersion int    `json:"model_version"`
	// ModelIn and ModelWindow are the loaded model's input arity (contextual
	// features) and RU-history window, so load generators can shape valid
	// requests from /statz alone.
	ModelIn     int `json:"model_in"`
	ModelWindow int `json:"model_window"`
	// Precision is the numeric path the active bundle serves on ("float64"
	// or "float32"); empty until a bundle is loaded.
	Precision     string `json:"precision,omitempty"`
	Workers       int    `json:"workers"`
	MaxBatch      int    `json:"max_batch"`
	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`

	Served   uint64 `json:"requests_served"`
	Rejected uint64 `json:"requests_rejected"` // 429s from the bounded queue
	Failed   uint64 `json:"requests_failed"`
	Batches  uint64 `json:"batches"`
	Reloads  uint64 `json:"model_reloads"`

	MaxBatchObserved int               `json:"max_batch_observed"`
	BatchHistogram   map[string]uint64 `json:"batch_histogram"`
	P50LatencyMS     float64           `json:"p50_latency_ms"`
	P99LatencyMS     float64           `json:"p99_latency_ms"`

	// Per-stage p99s attribute the tail: a slow P99LatencyMS decomposes
	// into time spent queued behind busy workers or in the forward pass
	// itself.
	QueueWaitP99MS float64 `json:"queue_wait_p99_ms"`
	ForwardP99MS   float64 `json:"forward_p99_ms"`

	// LatencyExemplars link each end-to-end latency bucket to the request id
	// last observed in it, so a bad p99 bucket leads straight to a concrete
	// request trace.
	LatencyExemplars []obs.BucketExemplar `json:"latency_exemplars,omitempty"`
}

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Workers:        s.cfg.Workers,
		MaxBatch:       s.cfg.MaxBatch,
		QueueDepth:     s.queue.len(),
		QueueCapacity:  s.cfg.QueueDepth,
		Served:         s.served.Value(),
		Rejected:       s.rejected.Value(),
		Failed:         s.failed.Value(),
		Batches:        s.batchSeq.Load(),
		Reloads:        s.reloads.Value(),
		BatchHistogram: make(map[string]uint64),
	}
	if b := s.bundle.Load(); b != nil {
		st.Model, st.ModelVersion = b.Name, b.Version
		st.Precision = string(b.ActivePrecision())
		cfg := b.Model.Config()
		st.ModelIn, st.ModelWindow = cfg.In, cfg.Window
	}
	bounds, counts := s.batchSizes.Snapshot()
	lo := 1
	for i, b := range bounds {
		hi := int(b)
		label := strconv.Itoa(hi)
		if lo < hi {
			label = strconv.Itoa(lo) + "-" + strconv.Itoa(hi)
		}
		if c := counts[i]; c > 0 {
			st.BatchHistogram[label] = c
		}
		lo = hi + 1
	}
	if c := counts[len(bounds)]; c > 0 {
		st.BatchHistogram[strconv.Itoa(lo)+"+"] = c
	}
	st.MaxBatchObserved = int(s.batchSizes.Max())
	qs := s.latency.Quantiles(0.50, 0.99)
	st.P50LatencyMS, st.P99LatencyMS = qs[0], qs[1]
	st.QueueWaitP99MS = s.stageQueue.Quantile(0.99)
	st.ForwardP99MS = s.stageFwd.Quantile(0.99)
	st.LatencyExemplars = s.latency.Exemplars()
	return st
}
