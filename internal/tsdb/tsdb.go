// Package tsdb is a small labelled time-series database standing in for
// Prometheus in the testing workflow (Figure 2): metric samples carry label
// sets (including the EM record id, as in the paper's service-discovery
// snippet), and a scraper pulls text-exposition metrics from registered
// targets. The prediction pipeline reads the store in process
// (pipeline.SeriesFromTSDB); over HTTP, GET /query evaluates a
// PromQL-flavoured expression, instant or over a range, for rules, the
// dashboard and people.
package tsdb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Labels is an immutable-by-convention label set attached to a series.
type Labels map[string]string

// Fingerprint renders the labels deterministically, for use as a series key.
func (l Labels) Fingerprint() string {
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(l[k])
	}
	return b.String()
}

// Clone returns a copy of the label set.
func (l Labels) Clone() Labels {
	c := make(Labels, len(l))
	for k, v := range l {
		c[k] = v
	}
	return c
}

// Matches reports whether every matcher key/value is present in l. An empty
// matcher matches everything.
func (l Labels) Matches(matcher Labels) bool {
	for k, v := range matcher {
		if l[k] != v {
			return false
		}
	}
	return true
}

// Sample is one timestamped value.
type Sample struct {
	T int64   // unix seconds
	V float64 // value
}

// Series is an ordered sample stream with a label identity.
type Series struct {
	Labels  Labels
	Samples []Sample
}

// DB is a concurrency-safe in-memory TSDB. Retention is bounded two
// ways: a time window enforced by GC (SetRetention) and a hard
// per-series sample cap enforced at append time
// (SetMaxSamplesPerSeries), so an unattended daemon cannot grow without
// limit.
type DB struct {
	mu           sync.RWMutex
	series       map[string]*Series
	retentionSec int64 // 0 = keep everything
	maxSamples   int   // 0 = unlimited
	evicted      uint64
}

// New returns an empty database with unlimited retention.
func New() *DB {
	return &DB{series: make(map[string]*Series)}
}

// SetRetention sets the time window GC keeps, in seconds; 0 disables
// time-based eviction.
func (db *DB) SetRetention(sec int64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.retentionSec = sec
}

// SetMaxSamplesPerSeries caps each series' sample count; appends beyond
// the cap evict the oldest samples. 0 disables the cap.
func (db *DB) SetMaxSamplesPerSeries(n int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.maxSamples = n
}

// EvictedSamples returns the total number of samples dropped by the
// retention window and the per-series cap (exposed by tsdbd as
// tsdb_evicted_samples_total).
func (db *DB) EvictedSamples() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.evicted
}

// GC drops samples older than now minus the retention window, and
// deletes series left empty. It returns the number of samples evicted
// in this pass; a no-op without a configured retention.
func (db *DB) GC(now int64) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.retentionSec <= 0 {
		return 0
	}
	cutoff := now - db.retentionSec
	dropped := 0
	for fp, s := range db.series {
		lo := sort.Search(len(s.Samples), func(i int) bool { return s.Samples[i].T >= cutoff })
		if lo == 0 {
			continue
		}
		dropped += lo
		if lo == len(s.Samples) {
			delete(db.series, fp)
			continue
		}
		// Reallocate rather than re-slice so the evicted prefix is freed.
		s.Samples = append([]Sample(nil), s.Samples[lo:]...)
	}
	db.evicted += uint64(dropped)
	return dropped
}

// Append adds a sample to the series identified by labels, creating it on
// first use. Out-of-order samples (older than the series head) are rejected,
// matching the ingestion rule of real TSDBs.
func (db *DB) Append(labels Labels, t int64, v float64) error {
	fp := labels.Fingerprint()
	db.mu.Lock()
	defer db.mu.Unlock()
	s, ok := db.series[fp]
	if !ok {
		s = &Series{Labels: labels.Clone()}
		db.series[fp] = s
	}
	if n := len(s.Samples); n > 0 && t < s.Samples[n-1].T {
		return fmt.Errorf("tsdb: out-of-order sample t=%d < head=%d for {%s}", t, s.Samples[n-1].T, fp)
	}
	s.Samples = append(s.Samples, Sample{T: t, V: v})
	if db.maxSamples > 0 && len(s.Samples) > db.maxSamples {
		over := len(s.Samples) - db.maxSamples
		s.Samples = append([]Sample(nil), s.Samples[over:]...)
		db.evicted += uint64(over)
	}
	return nil
}

// Query returns copies of all series whose labels contain matcher, with
// samples restricted to [from, to] (inclusive; pass from>to for none,
// from=0,to=MaxInt64 for all). Results are ordered by fingerprint.
func (db *DB) Query(matcher Labels, from, to int64) []Series {
	db.mu.RLock()
	defer db.mu.RUnlock()
	fps := make([]string, 0, len(db.series))
	for fp, s := range db.series {
		if s.Labels.Matches(matcher) {
			fps = append(fps, fp)
		}
	}
	sort.Strings(fps)
	var out []Series
	for _, fp := range fps {
		s := db.series[fp]
		lo := sort.Search(len(s.Samples), func(i int) bool { return s.Samples[i].T >= from })
		hi := sort.Search(len(s.Samples), func(i int) bool { return s.Samples[i].T > to })
		if lo >= hi {
			continue
		}
		cp := Series{Labels: s.Labels.Clone(), Samples: append([]Sample(nil), s.Samples[lo:hi]...)}
		out = append(out, cp)
	}
	return out
}

// NumSeries returns the number of distinct series stored.
func (db *DB) NumSeries() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.series)
}
