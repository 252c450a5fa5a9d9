package quality

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"env2vec/internal/anomaly"
	"env2vec/internal/obs"
)

// Sink delivers one alarm to the alarm store; HTTPSink posts it to the
// store's HTTP API. Push may block and may fail; Async wraps any Sink with a
// bounded queue so the serving path never does either.
type Sink interface {
	Push(a anomaly.Alarm, createdAt int64) error
}

// HTTPSink posts alarms to a remote alarm store's POST /alarms endpoint.
// The remote store stamps its own CreatedAt.
type HTTPSink struct {
	// URL is the store's base URL (e.g. http://alarms:7070).
	URL string
	// Client defaults to a 5-second-timeout client.
	Client *http.Client
}

var defaultHTTPClient = &http.Client{Timeout: 5 * time.Second}

// Push implements Sink.
func (s HTTPSink) Push(a anomaly.Alarm, _ int64) error {
	body, err := json.Marshal(a)
	if err != nil {
		return fmt.Errorf("quality: encode alarm: %w", err)
	}
	client := s.Client
	if client == nil {
		client = defaultHTTPClient
	}
	resp, err := client.Post(strings.TrimRight(s.URL, "/")+"/alarms", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("quality: push alarm: %w", err)
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("quality: alarm store returned %d", resp.StatusCode)
	}
	return nil
}

// AsyncConfig tunes the asynchronous alarm pusher.
type AsyncConfig struct {
	// QueueDepth bounds queued alarms; overflow is dropped and counted
	// (default 64).
	QueueDepth int
	// Retries is how many delivery re-attempts follow a failed push
	// (default 3; negative means none).
	Retries int
	// Backoff is the initial retry delay, doubling per attempt
	// (default 50ms).
	Backoff time.Duration
	// Logger receives drop/failure records; nil discards them.
	Logger *slog.Logger
}

func (c AsyncConfig) withDefaults() AsyncConfig {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 3
	}
	if c.Backoff <= 0 {
		c.Backoff = 50 * time.Millisecond
	}
	if c.Logger == nil {
		c.Logger = obs.DiscardLogger()
	}
	return c
}

type queuedAlarm struct {
	a  anomaly.Alarm
	at int64
}

// Async delivers alarms to a Sink from a background goroutine behind a
// bounded queue: the observing path enqueues without blocking, delivery
// failures retry with exponential backoff, and overflow or undeliverable
// alarms are dropped with a counter (never a stall).
type Async struct {
	sink  Sink
	cfg   AsyncConfig
	queue chan queuedAlarm
	stop  chan struct{} // closed by Close; cancels backoff waits
	wg    sync.WaitGroup

	mu     sync.RWMutex
	closed bool

	pushed, dropped, errors atomic.Uint64
}

// NewAsync starts the delivery goroutine. The counters register into reg
// (nil skips registration; the accessors still work).
func NewAsync(sink Sink, cfg AsyncConfig, reg *obs.Registry) *Async {
	a := &Async{sink: sink, cfg: cfg.withDefaults(), stop: make(chan struct{})}
	a.queue = make(chan queuedAlarm, a.cfg.QueueDepth)
	reg.CounterFunc("env2vec_quality_alarms_pushed_total", "Alarms delivered to the alarm store.", nil, a.pushed.Load)
	reg.CounterFunc("env2vec_quality_alarms_dropped_total", "Alarms dropped on queue overflow or after exhausting retries.", nil, a.dropped.Load)
	reg.CounterFunc("env2vec_quality_alarm_push_errors_total", "Failed alarm delivery attempts (before retrying).", nil, a.errors.Load)
	a.wg.Add(1)
	go a.run()
	return a
}

// Push enqueues an alarm without blocking; a full queue (or a closed
// pusher) drops it, increments the drop counter, and returns false.
func (a *Async) Push(alarm anomaly.Alarm, createdAt int64) bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if a.closed {
		a.dropped.Add(1)
		return false
	}
	select {
	case a.queue <- queuedAlarm{a: alarm, at: createdAt}:
		return true
	default:
		a.dropped.Add(1)
		a.cfg.Logger.Warn("alarm dropped: queue full", "chain", alarm.ChainID, "detector", alarm.Detector, "queue_capacity", a.cfg.QueueDepth)
		return false
	}
}

func (a *Async) run() {
	defer a.wg.Done()
	for q := range a.queue {
		var err error
		backoff := a.cfg.Backoff
		for attempt := 0; attempt <= a.cfg.Retries; attempt++ {
			if err = a.sink.Push(q.a, q.at); err == nil {
				break
			}
			a.errors.Add(1)
			if attempt == a.cfg.Retries {
				break
			}
			// The backoff wait must not outlive Close: against an unreachable
			// store, an uncancellable sleep would stretch shutdown by the full
			// exponential ladder for every queued alarm. Once stop closes, the
			// waits are skipped but the attempts are not — deliverable alarms
			// still drain at full retry fidelity.
			timer := time.NewTimer(backoff)
			select {
			case <-timer.C:
				backoff *= 2
			case <-a.stop:
				timer.Stop()
			}
		}
		if err != nil {
			a.dropped.Add(1)
			a.cfg.Logger.Error("alarm undeliverable", "chain", q.a.ChainID, "detector", q.a.Detector, "retries", a.cfg.Retries, "err", err)
		} else {
			a.pushed.Add(1)
		}
	}
}

// Close stops admission, drains queued alarms through the sink (including
// retries), and waits for delivery to finish. Draining skips the backoff
// waits: even with a permanently failing sink, Close returns within roughly
// one backoff interval plus the time the remaining Push attempts take.
func (a *Async) Close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	a.mu.Unlock()
	close(a.stop)
	close(a.queue)
	a.wg.Wait()
}

// Pushed returns alarms successfully delivered.
func (a *Async) Pushed() uint64 { return a.pushed.Load() }

// Dropped returns alarms lost to overflow or exhausted retries.
func (a *Async) Dropped() uint64 { return a.dropped.Load() }

// Errors returns individual failed delivery attempts.
func (a *Async) Errors() uint64 { return a.errors.Load() }
