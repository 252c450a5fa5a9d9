package serve

// batchBounds are the upper bounds of the batch-size histogram buckets;
// the overflow bucket is open-ended. They double as the Prometheus le
// bounds of env2vec_serve_batch_size.
var batchBounds = []float64{1, 2, 4, 8, 16, 32, 64}

// Stats is the /statz payload: what a load generator reads to shape its
// requests and to attribute the server's tail. Everything else about the
// server — batch sizes, exemplars, precision, configuration — is on
// /metrics.
type Stats struct {
	Model        string `json:"model"`
	ModelVersion int    `json:"model_version"`
	// ModelIn and ModelWindow are the loaded model's input arity (contextual
	// features) and RU-history window, so load generators can shape valid
	// requests from /statz alone.
	ModelIn     int `json:"model_in"`
	ModelWindow int `json:"model_window"`
	QueueDepth  int `json:"queue_depth"`

	Served   uint64 `json:"requests_served"`
	Rejected uint64 `json:"requests_rejected"` // 429s from the bounded queue
	Failed   uint64 `json:"requests_failed"`
	Batches  uint64 `json:"batches"`

	MaxBatchObserved int     `json:"max_batch_observed"`
	P50LatencyMS     float64 `json:"p50_latency_ms"`
	P99LatencyMS     float64 `json:"p99_latency_ms"`

	// Per-stage p99s attribute the tail: a slow P99LatencyMS decomposes
	// into time spent queued behind busy workers or in the forward pass
	// itself.
	QueueWaitP99MS float64 `json:"queue_wait_p99_ms"`
	ForwardP99MS   float64 `json:"forward_p99_ms"`
}

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	st := Stats{
		QueueDepth:       s.queue.len(),
		Served:           s.served.Value(),
		Rejected:         s.rejected.Value(),
		Failed:           s.failed.Value(),
		Batches:          s.batchSeq.Load(),
		MaxBatchObserved: int(s.batchSizes.Max()),
		QueueWaitP99MS:   s.stageQueue.Quantile(0.99),
		ForwardP99MS:     s.stageFwd.Quantile(0.99),
	}
	if b := s.bundle.Load(); b != nil {
		st.Model, st.ModelVersion = b.Name, b.Version
		cfg := b.Model.Config()
		st.ModelIn, st.ModelWindow = cfg.In, cfg.Window
	}
	qs := s.latency.Quantiles(0.50, 0.99)
	st.P50LatencyMS, st.P99LatencyMS = qs[0], qs[1]
	return st
}
