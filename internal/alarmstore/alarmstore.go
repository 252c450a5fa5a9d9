// Package alarmstore is the alarm database of workflow step (4): Env2Vec
// pushes alarms here so that testing engineers can pinpoint the testbed and
// time interval of each detected issue (the paper uses PostgreSQL). The
// store is an append-only JSON-lines file with an in-memory index and an
// HTTP API, supporting the same queries the workflow needs: by chain, by
// testbed, and by time range. Records are never rewritten: a crash mid-append
// leaves at most one unterminated last line, which Open cuts off.
package alarmstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"env2vec/internal/anomaly"
)

// Record is one stored alarm row.
type Record struct {
	ID        int   `json:"id"`
	CreatedAt int64 `json:"created_at"` // unix seconds
	// Source classifies the producer: "drift" (model-quality monitor) or
	// "slo" (the monitoring plane's burn-rate rules), so both kinds share
	// one store yet stay separable. Derived from the alarm at push time;
	// alarms without a source are drift alarms (the original producer).
	Source string        `json:"source"`
	Alarm  anomaly.Alarm `json:"alarm"`
}

// Store is a concurrency-safe alarm database with optional file
// persistence (empty path = memory only).
type Store struct {
	mu      sync.RWMutex
	path    string
	records []Record
	nextID  int
}

// Open loads (or creates) a store at path; pass "" for memory-only.
func Open(path string) (*Store, error) {
	s := &Store{path: path, nextID: 1}
	if path == "" {
		return s, nil
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("alarmstore: open: %w", err)
	}
	// Every Push ends its record with a newline, so a last line without one
	// is an append a crash cut short: drop it. A complete line that does not
	// parse is corruption, and the store is refused.
	end := bytes.LastIndexByte(data, '\n') + 1
	if end < len(data) {
		if err := os.Truncate(path, int64(end)); err != nil {
			return nil, fmt.Errorf("alarmstore: drop torn record: %w", err)
		}
	}
	for _, line := range bytes.Split(data[:end], []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("alarmstore: corrupt record: %w", err)
		}
		s.records = append(s.records, rec)
		if rec.ID >= s.nextID {
			s.nextID = rec.ID + 1
		}
	}
	return s, nil
}

// Push appends an alarm, assigning an id, and persists it.
func (s *Store) Push(a anomaly.Alarm, createdAt int64) (Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	src := a.Source
	if src == "" {
		src = "drift"
	}
	rec := Record{ID: s.nextID, CreatedAt: createdAt, Source: src, Alarm: a}
	if s.path != "" {
		f, err := os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return Record{}, fmt.Errorf("alarmstore: push: %w", err)
		}
		enc := json.NewEncoder(f)
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return Record{}, fmt.Errorf("alarmstore: push: %w", err)
		}
		if err := f.Close(); err != nil {
			return Record{}, fmt.Errorf("alarmstore: push: %w", err)
		}
	}
	s.nextID++
	s.records = append(s.records, rec)
	return rec, nil
}

// Query filters stored alarms. Zero-valued fields are wildcards; time
// bounds apply to CreatedAt (to=0 means no upper bound).
type Query struct {
	ChainID  string
	Testbed  string
	Detector string
	Source   string // "drift" or "slo"; matches Record.Source
	From, To int64
}

// Find returns matching records ordered by id.
func (s *Store) Find(q Query) []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Record
	for _, rec := range s.records {
		if q.ChainID != "" && rec.Alarm.ChainID != q.ChainID {
			continue
		}
		if q.Testbed != "" && rec.Alarm.Testbed != q.Testbed {
			continue
		}
		if q.Detector != "" && rec.Alarm.Detector != q.Detector {
			continue
		}
		if q.Source != "" && rec.sourceOrDefault() != q.Source {
			continue
		}
		if rec.CreatedAt < q.From {
			continue
		}
		if q.To != 0 && rec.CreatedAt > q.To {
			continue
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// sourceOrDefault returns the record's source, treating rows persisted
// before the field existed as drift alarms.
func (r Record) sourceOrDefault() string {
	if r.Source == "" {
		return "drift"
	}
	return r.Source
}

// Handler exposes the store over HTTP:
//
//	POST /alarms              (JSON anomaly.Alarm body) → stored record
//	GET  /alarms?chain=&testbed=&detector=&source=&from=&to= → matching records
//
// Errors come back as {"error": "..."} JSON bodies.
type Handler struct {
	Store *Store
	// Now supplies CreatedAt for pushed alarms; defaults to the wall clock,
	// overridable in tests.
	Now func() int64
}

// jsonError writes an {"error": ...} body with the given status.
func jsonError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/alarms" {
		jsonError(w, http.StatusNotFound, "not found")
		return
	}
	switch r.Method {
	case http.MethodPost:
		var a anomaly.Alarm
		if err := json.NewDecoder(r.Body).Decode(&a); err != nil {
			jsonError(w, http.StatusBadRequest, "bad alarm body: "+err.Error())
			return
		}
		now := time.Now().Unix()
		if h.Now != nil {
			now = h.Now()
		}
		rec, err := h.Store.Push(a, now)
		if err != nil {
			jsonError(w, http.StatusInternalServerError, err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		_ = json.NewEncoder(w).Encode(rec)
	case http.MethodGet:
		q := Query{
			ChainID:  r.URL.Query().Get("chain"),
			Testbed:  r.URL.Query().Get("testbed"),
			Detector: r.URL.Query().Get("detector"),
			Source:   r.URL.Query().Get("source"),
		}
		var err error
		if q.From, err = timeParam(r, "from"); err != nil {
			jsonError(w, http.StatusBadRequest, err.Error())
			return
		}
		if q.To, err = timeParam(r, "to"); err != nil {
			jsonError(w, http.StatusBadRequest, err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(h.Store.Find(q))
	default:
		jsonError(w, http.StatusMethodNotAllowed, "method not allowed")
	}
}

// timeParam parses an optional unix-seconds query parameter.
func timeParam(r *http.Request, name string) (int64, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return 0, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("alarmstore: bad %s %q: want unix seconds", name, v)
	}
	return n, nil
}
