package tsdb

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Handler exposes the DB over HTTP:
//
//	GET /query?expr=<expression>[&time=| &from=&to=&step=]
//	GET /alerts (pending/firing alerts, JSON; needs Rules)
//	GET /dashboard (self-contained fleet health HTML)
//	GET /metrics (all series, text exposition; for federation/debugging)
type Handler struct {
	DB *DB
	// SelfMetrics, when non-nil, is rendered ahead of the stored series on
	// /metrics — the daemon's own telemetry (scrape counters, series
	// gauges) sharing the page with the federation dump. An obs.Registry
	// satisfies this without tsdb depending on the obs package.
	SelfMetrics io.WriterTo
	// Rules, when non-nil, feeds /alerts and the dashboard alert table.
	Rules *Rules
	// Now anchors default evaluation times; defaults to the wall clock.
	Now func() int64
}

func (h *Handler) now() int64 {
	if h.Now != nil {
		return h.Now()
	}
	return time.Now().Unix()
}

// queryResponse is the JSON shape of a range /query.
type queryResponse struct {
	Status string       `json:"status"`
	Data   []seriesJSON `json:"data"`
}

type seriesJSON struct {
	Labels  map[string]string `json:"labels"`
	Samples []Sample          `json:"samples"`
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/query":
		h.query(w, r)
	case r.URL.Path == "/alerts":
		h.alerts(w)
	case r.URL.Path == "/dashboard":
		h.dashboard(w)
	case r.URL.Path == "/metrics":
		h.dump(w)
	default:
		http.NotFound(w, r)
	}
}

// query evaluates an expression. With from/to/step it returns a range
// result (series of step-aligned samples); otherwise an instant vector
// at ?time= (default: now).
func (h *Handler) query(w http.ResponseWriter, r *http.Request) {
	expr := r.URL.Query().Get("expr")
	if expr == "" {
		http.Error(w, "missing expr", http.StatusBadRequest)
		return
	}
	q := r.URL.Query()
	if q.Get("from") != "" || q.Get("to") != "" || q.Get("step") != "" {
		from, err1 := parseTime(q.Get("from"), 0)
		to, err2 := parseTime(q.Get("to"), h.now())
		step, err3 := parseTime(q.Get("step"), 15)
		if err1 != nil || err2 != nil || err3 != nil {
			http.Error(w, "bad from/to/step: want unix seconds", http.StatusBadRequest)
			return
		}
		series, err := h.DB.Range(expr, from, to, step)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp := queryResponse{Status: "success", Data: make([]seriesJSON, 0, len(series))}
		for _, s := range series {
			resp.Data = append(resp.Data, seriesJSON{Labels: s.Labels, Samples: s.Samples})
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
		return
	}
	ts, err := parseTime(q.Get("time"), h.now())
	if err != nil {
		http.Error(w, "bad time: want unix seconds", http.StatusBadRequest)
		return
	}
	vec, err := h.DB.Instant(expr, ts)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	type pointJSON struct {
		Labels map[string]string `json:"labels"`
		Value  float64           `json:"value"`
	}
	data := make([]pointJSON, 0, len(vec))
	for _, p := range vec {
		data = append(data, pointJSON{Labels: p.Labels, Value: p.V})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"status": "success", "time": ts, "data": data})
}

// alerts serves the rule engine's pending/firing alerts.
func (h *Handler) alerts(w http.ResponseWriter) {
	var active []ActiveAlert
	if h.Rules != nil {
		active = h.Rules.ActiveAlerts()
	}
	if active == nil {
		active = []ActiveAlert{}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"status": "success", "data": active})
}

func (h *Handler) dump(w http.ResponseWriter) {
	series := h.DB.Query(Labels{}, 0, 1<<62)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if h.SelfMetrics != nil {
		_, _ = h.SelfMetrics.WriteTo(w)
	}
	_ = WriteExposition(w, series)
}

func parseTime(s string, def int64) (int64, error) {
	if s == "" {
		return def, nil
	}
	return strconv.ParseInt(s, 10, 64)
}
