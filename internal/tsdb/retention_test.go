package tsdb

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRetentionGC: samples older than the window are dropped, empty
// series deleted, and the eviction counter advances.
func TestRetentionGC(t *testing.T) {
	db := New()
	db.SetRetention(100)
	old := Labels{"__name__": "stale"}
	live := Labels{"__name__": "fresh"}
	for ts := int64(0); ts <= 50; ts += 10 {
		if err := db.Append(old, ts, 1); err != nil {
			t.Fatal(err)
		}
	}
	for ts := int64(0); ts <= 200; ts += 10 {
		if err := db.Append(live, ts, 2); err != nil {
			t.Fatal(err)
		}
	}

	dropped := db.GC(250) // cutoff 150: all of "stale", part of "fresh"
	if dropped == 0 {
		t.Fatal("GC dropped nothing")
	}
	if db.NumSeries() != 1 {
		t.Fatalf("empty series should be deleted, have %d", db.NumSeries())
	}
	got := db.Query(Labels{"__name__": "fresh"}, 0, 1<<62)
	if len(got) != 1 {
		t.Fatal("fresh series missing")
	}
	for _, s := range got[0].Samples {
		if s.T < 150 {
			t.Fatalf("sample t=%d survived cutoff 150", s.T)
		}
	}
	if db.EvictedSamples() != uint64(dropped) {
		t.Fatalf("evicted counter %d != dropped %d", db.EvictedSamples(), dropped)
	}
	// Appending after GC still works (head preserved).
	if err := db.Append(live, 260, 3); err != nil {
		t.Fatal(err)
	}
}

// TestMaxSamplesCap: the per-series cap evicts from the front at append
// time, keeping the newest samples.
func TestMaxSamplesCap(t *testing.T) {
	db := New()
	db.SetMaxSamplesPerSeries(5)
	lbl := Labels{"__name__": "capped"}
	for ts := int64(1); ts <= 20; ts++ {
		if err := db.Append(lbl, ts, float64(ts)); err != nil {
			t.Fatal(err)
		}
	}
	got := db.Query(Labels{}, 0, 1<<62)
	if len(got) != 1 || len(got[0].Samples) != 5 {
		t.Fatalf("want 5 samples, got %v", got)
	}
	if got[0].Samples[0].T != 16 || got[0].Samples[4].T != 20 {
		t.Fatalf("cap kept wrong window: %v", got[0].Samples)
	}
	if db.EvictedSamples() != 15 {
		t.Fatalf("evicted = %d, want 15", db.EvictedSamples())
	}
}

// TestScrapeParallel: targets are scraped concurrently (peak in-flight
// > 1), a slow target doesn't stall the cycle beyond its own timeout,
// and all samples still land with correct instance labels.
func TestScrapeParallel(t *testing.T) {
	const targets = 6
	var inflight, peak atomic.Int64
	var mu sync.Mutex
	updatePeak := func() {
		mu.Lock()
		defer mu.Unlock()
		if c := inflight.Load(); c > peak.Load() {
			peak.Store(c)
		}
	}
	release := make(chan struct{})
	var servers []*httptest.Server
	var addrs []string
	for i := 0; i < targets; i++ {
		i := i
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			inflight.Add(1)
			updatePeak()
			<-release // hold all requests until every worker has arrived
			inflight.Add(-1)
			fmt.Fprintf(w, "probe_metric %d\n", i)
		}))
		defer srv.Close()
		servers = append(servers, srv)
		addrs = append(addrs, strings.TrimPrefix(srv.URL, "http://"))
	}
	// With all requests blocked, a serial scraper would deadlock here;
	// the pool lets `targets` requests arrive, then we release them.
	go func() {
		deadline := time.After(5 * time.Second)
		for {
			if inflight.Load() == targets {
				close(release)
				return
			}
			select {
			case <-deadline:
				close(release)
				return
			default:
				time.Sleep(time.Millisecond)
			}
		}
	}()

	dir := t.TempDir()
	sd := filepath.Join(dir, "sd.json")
	if err := WriteSDConfig(sd, []SDEntry{{Targets: addrs, Labels: map[string]string{"env": "rec1"}}}); err != nil {
		t.Fatal(err)
	}
	s := NewScraper(New(), sd, time.Second)
	s.Concurrency = targets
	n, err := s.ScrapeOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != targets {
		t.Fatalf("ingested %d samples, want %d", n, targets)
	}
	if got := peak.Load(); got < 2 {
		t.Fatalf("peak in-flight %d; scrapes did not overlap", got)
	}
	for _, addr := range addrs {
		if got := s.DB.Query(Labels{"__name__": "probe_metric", "env": "rec1", "instance": addr}, 0, 1<<62); len(got) != 1 {
			t.Fatalf("no sample for instance %s", addr)
		}
	}
}

// TestScrapeTargetTimeout: a hung target is cut off by the per-target
// timeout (the scrape interval, when under 5s) and counted as an error
// while healthy targets still land.
func TestScrapeTargetTimeout(t *testing.T) {
	hung := make(chan struct{})
	defer close(hung)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-hung:
		case <-r.Context().Done():
		}
	}))
	defer slow.Close()
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok_metric 1")
	}))
	defer fast.Close()

	dir := t.TempDir()
	sd := filepath.Join(dir, "sd.json")
	err := WriteSDConfig(sd, []SDEntry{{
		Targets: []string{strings.TrimPrefix(slow.URL, "http://"), strings.TrimPrefix(fast.URL, "http://")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	s := NewScraper(New(), sd, 50*time.Millisecond)
	start := time.Now()
	n, err := s.ScrapeOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cycle took %v; timeout not applied", elapsed)
	}
	if n != 1 {
		t.Fatalf("ingested %d, want 1 (fast target only)", n)
	}
	if _, errs := s.Stats(); errs != 1 {
		t.Fatalf("errs = %d, want 1", errs)
	}
}

// TestScrapeGCIntegration: a retention-configured DB is pruned as part
// of the scrape cycle.
func TestScrapeGCIntegration(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "cycle_metric 1")
	}))
	defer srv.Close()
	dir := t.TempDir()
	sd := filepath.Join(dir, "sd.json")
	if err := WriteSDConfig(sd, []SDEntry{{Targets: []string{strings.TrimPrefix(srv.URL, "http://")}}}); err != nil {
		t.Fatal(err)
	}
	db := New()
	db.SetRetention(30)
	s := NewScraper(db, sd, time.Second)
	now := int64(1000)
	s.Now = func() int64 { return now }
	for i := 0; i < 5; i++ {
		if _, err := s.ScrapeOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
		now += 60 // each cycle ages past the 30s window
	}
	// Only the newest sample can be within the window after the final GC.
	got := db.Query(Labels{"__name__": "cycle_metric"}, 0, 1<<62)
	if len(got) != 1 || len(got[0].Samples) != 1 {
		t.Fatalf("retention during scrape not applied: %v", got)
	}
	if db.EvictedSamples() == 0 {
		t.Fatal("no evictions recorded")
	}
}
