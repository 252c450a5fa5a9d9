package tsdb

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"time"
)

// SDEntry is one entry of the file-based service-discovery configuration —
// the JSON shape quoted in §3 step (1):
//
//	[{"targets": ["IP:PORT"], "labels": {"env": "EM_record_id"}}]
type SDEntry struct {
	Targets []string          `json:"targets"`
	Labels  map[string]string `json:"labels"`
}

// ReadSDConfig parses a service-discovery JSON file.
func ReadSDConfig(path string) ([]SDEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tsdb: read sd config: %w", err)
	}
	var entries []SDEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("tsdb: parse sd config: %w", err)
	}
	return entries, nil
}

// WriteSDConfig writes (atomically via rename) a service-discovery file;
// the workflow appends a new entry whenever a test case starts.
func WriteSDConfig(path string, entries []SDEntry) error {
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return fmt.Errorf("tsdb: marshal sd config: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("tsdb: write sd config: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("tsdb: commit sd config: %w", err)
	}
	return nil
}

// AppendSDTarget adds one target+labels entry to the discovery file,
// creating the file if needed.
func AppendSDTarget(path, target string, labels map[string]string) error {
	entries, err := ReadSDConfig(path)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		entries = nil
	}
	entries = append(entries, SDEntry{Targets: []string{target}, Labels: labels})
	return WriteSDConfig(path, entries)
}

// Scraper periodically pulls /metrics from discovered targets into a DB,
// attaching the discovery labels to every scraped series.
type Scraper struct {
	DB       *DB
	SDPath   string
	Interval time.Duration
	Client   *http.Client
	// Now supplies the default sample timestamp; overridable in tests.
	Now func() int64
	// Logger, when non-nil, receives scrape failures that were previously
	// swallowed (down targets, unreadable discovery files); attach a
	// component field so a shared stderr stream stays attributable.
	Logger *slog.Logger
	// Concurrency bounds how many targets are scraped in parallel per
	// cycle (default 8). One slow or down backend no longer delays the
	// rest of the fleet's samples by a full client timeout.
	Concurrency int

	mu      sync.Mutex
	scrapes int
	errs    int
}

func (s *Scraper) concurrency() int {
	if s.Concurrency > 0 {
		return s.Concurrency
	}
	return 8
}

// targetTimeout caps each target scrape: the scrape interval (so one
// cycle can't overlap the next) or 5s, whichever is smaller.
func (s *Scraper) targetTimeout() time.Duration {
	if s.Interval > 0 && s.Interval < 5*time.Second {
		return s.Interval
	}
	return 5 * time.Second
}

// logger is l, or a logger that discards when l is nil.
func logger(l *slog.Logger) *slog.Logger {
	if l != nil {
		return l
	}
	return discardLogger
}

var discardLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// NewScraper builds a scraper over db using the discovery file at sdPath.
func NewScraper(db *DB, sdPath string, interval time.Duration) *Scraper {
	return &Scraper{
		DB: db, SDPath: sdPath, Interval: interval,
		Client: &http.Client{Timeout: 5 * time.Second},
		Now:    func() int64 { return time.Now().Unix() },
	}
}

// ScrapeOnce performs one discovery+scrape cycle and returns the number
// of samples ingested. Targets are scraped concurrently through a
// bounded worker pool (see Concurrency), each under its own timeout, so
// a hung backend costs one pool slot for one timeout instead of
// stalling the whole cycle. After the cycle the DB's retention policy
// runs, keeping the storage window bounded.
func (s *Scraper) ScrapeOnce(ctx context.Context) (int, error) {
	entries, err := ReadSDConfig(s.SDPath)
	if err != nil {
		return 0, err
	}
	type job struct {
		target string
		labels map[string]string
	}
	var jobs []job
	for _, e := range entries {
		for _, target := range e.Targets {
			jobs = append(jobs, job{target, e.Labels})
		}
	}
	var (
		wg    sync.WaitGroup
		sem   = make(chan struct{}, s.concurrency())
		total int
	)
	for _, j := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func(j job) {
			defer wg.Done()
			defer func() { <-sem }()
			tctx, cancel := context.WithTimeout(ctx, s.targetTimeout())
			defer cancel()
			n, err := s.scrapeTarget(tctx, j.target, j.labels)
			s.mu.Lock()
			s.scrapes++
			if err != nil {
				s.errs++
			} else {
				total += n
			}
			s.mu.Unlock()
			if err != nil {
				// A down target must not block the others, but it must not
				// vanish silently either.
				logger(s.Logger).Warn("target scrape failed", "target", j.target, "err", err)
			}
		}(j)
	}
	wg.Wait()
	s.DB.GC(s.Now())
	return total, nil
}

func (s *Scraper) scrapeTarget(ctx context.Context, target string, extra map[string]string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+target+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := s.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("tsdb: scrape %s: status %d", target, resp.StatusCode)
	}
	series, err := ParseExposition(resp.Body, s.Now())
	if err != nil {
		return 0, err
	}
	n := 0
	for _, sr := range series {
		labels := sr.Labels.Clone()
		for k, v := range extra {
			labels[k] = v
		}
		labels["instance"] = target
		for _, smp := range sr.Samples {
			if err := s.DB.Append(labels, smp.T, smp.V); err == nil {
				n++
			}
		}
	}
	return n, nil
}

// Run scrapes on the configured interval until the context is cancelled.
func (s *Scraper) Run(ctx context.Context) {
	ticker := time.NewTicker(s.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			if _, err := s.ScrapeOnce(ctx); err != nil {
				logger(s.Logger).Error("scrape cycle failed", "sd_path", s.SDPath, "err", err)
			}
		}
	}
}

// Stats returns the scrape and error counters.
func (s *Scraper) Stats() (scrapes, errs int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scrapes, s.errs
}
