package quality

import (
	"errors"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"env2vec/internal/alarmstore"
	"env2vec/internal/anomaly"
	"env2vec/internal/obs"
)

// blockingSink holds every Push until released, so tests can saturate the
// queue deterministically.
type blockingSink struct {
	release chan struct{}
	pushed  atomic.Uint64
}

func (b *blockingSink) Push(anomaly.Alarm, int64) error {
	<-b.release
	b.pushed.Add(1)
	return nil
}

func TestAsyncOverflowDropsCounted(t *testing.T) {
	reg := obs.NewRegistry()
	sink := &blockingSink{release: make(chan struct{})}
	a := NewAsync(sink, AsyncConfig{QueueDepth: 2}, reg)

	// First push is picked up by the worker (blocked in Push), leaving a
	// 2-slot queue. Give the worker a moment to drain slot one.
	if !a.Push(anomaly.Alarm{ChainID: "c0"}, 0) {
		t.Fatal("first push rejected")
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(a.queue) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the first alarm")
		}
		time.Sleep(time.Millisecond)
	}
	accepted, droppedNow := 1, 0
	for i := 0; i < 9; i++ {
		if a.Push(anomaly.Alarm{ChainID: "cx"}, 0) {
			accepted++
		} else {
			droppedNow++
		}
	}
	// 1 in flight + 2 queued can be accepted; the other 7 must drop.
	if accepted != 3 || droppedNow != 7 {
		t.Fatalf("accepted %d dropped %d, want 3/7", accepted, droppedNow)
	}
	if a.Dropped() != 7 {
		t.Fatalf("drop counter %d, want 7", a.Dropped())
	}
	close(sink.release)
	a.Close()
	if a.Pushed() != 3 {
		t.Fatalf("pushed %d, want 3", a.Pushed())
	}
	var b strings.Builder
	_, _ = reg.WriteTo(&b)
	if !strings.Contains(b.String(), "env2vec_quality_alarms_dropped_total 7") {
		t.Fatalf("drop counter not exported:\n%s", b.String())
	}
	// Pushing after Close drops instead of panicking.
	if a.Push(anomaly.Alarm{}, 0) {
		t.Fatal("push after Close accepted")
	}
}

// flakySink fails the first n attempts, then succeeds.
type flakySink struct {
	failuresLeft atomic.Int64
	attempts     atomic.Uint64
}

func (f *flakySink) Push(anomaly.Alarm, int64) error {
	f.attempts.Add(1)
	if f.failuresLeft.Add(-1) >= 0 {
		return errors.New("transient")
	}
	return nil
}

func TestAsyncRetriesWithBackoff(t *testing.T) {
	sink := &flakySink{}
	sink.failuresLeft.Store(2)
	a := NewAsync(sink, AsyncConfig{QueueDepth: 4, Retries: 3, Backoff: time.Millisecond}, nil)
	a.Push(anomaly.Alarm{ChainID: "c1"}, 42)
	a.Close()
	if sink.attempts.Load() != 3 {
		t.Fatalf("attempts %d, want 3 (2 failures + 1 success)", sink.attempts.Load())
	}
	if a.Pushed() != 1 || a.Dropped() != 0 || a.Errors() != 2 {
		t.Fatalf("pushed=%d dropped=%d errors=%d, want 1/0/2", a.Pushed(), a.Dropped(), a.Errors())
	}
}

func TestAsyncExhaustedRetriesDrop(t *testing.T) {
	sink := &flakySink{}
	sink.failuresLeft.Store(1000)
	a := NewAsync(sink, AsyncConfig{QueueDepth: 4, Retries: 2, Backoff: time.Microsecond}, nil)
	a.Push(anomaly.Alarm{ChainID: "c1"}, 42)
	a.Close()
	if sink.attempts.Load() != 3 {
		t.Fatalf("attempts %d, want 3 (1 + 2 retries)", sink.attempts.Load())
	}
	if a.Pushed() != 0 || a.Dropped() != 1 || a.Errors() != 3 {
		t.Fatalf("pushed=%d dropped=%d errors=%d, want 0/1/3", a.Pushed(), a.Dropped(), a.Errors())
	}
}

// TestSinksDeliverToAlarmstore drives HTTPSink into a real store over the
// store's HTTP API via httptest.
func TestSinksDeliverToAlarmstore(t *testing.T) {
	alarm := anomaly.Alarm{
		Detector: "quality:exceed-rate", ChainID: "<tb1,fw,load,B7>",
		Testbed: "tb1", SUT: "fw", Testcase: "load", Build: "B7",
		StartIdx: 10, EndIdx: 14, StartTime: 1000, EndTime: 1004, PeakDev: 20,
	}

	remote, err := alarmstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(&alarmstore.Handler{Store: remote, Now: func() int64 { return 1234 }})
	defer srv.Close()
	if err := (HTTPSink{URL: srv.URL}).Push(alarm, 0); err != nil {
		t.Fatal(err)
	}
	got := remote.Find(alarmstore.Query{ChainID: alarm.ChainID})
	if len(got) != 1 || got[0].Alarm.EndTime != 1004 || got[0].CreatedAt != 1234 {
		t.Fatalf("http sink record wrong: %+v", got)
	}

	// A dead endpoint errors instead of hanging forever.
	if err := (HTTPSink{URL: "http://127.0.0.1:1"}).Push(alarm, 0); err == nil {
		t.Fatal("push to dead store should fail")
	}
}

// alwaysFailSink simulates a permanently unreachable alarm store.
type alwaysFailSink struct {
	attempts atomic.Uint64
}

func (s *alwaysFailSink) Push(anomaly.Alarm, int64) error {
	s.attempts.Add(1)
	return errors.New("store unreachable")
}

// TestAsyncCloseUnderFailingSink is the shutdown regression test: Close used
// to sleep through the full exponential backoff ladder for every queued
// alarm — with the config below that is 4 alarms × (300+600+...+9600)ms ≈
// 76 s. Close must instead cancel the waits and return promptly while still
// performing every retry attempt.
func TestAsyncCloseUnderFailingSink(t *testing.T) {
	sink := &alwaysFailSink{}
	a := NewAsync(sink, AsyncConfig{
		QueueDepth: 8,
		Retries:    6,
		Backoff:    300 * time.Millisecond,
	}, nil)
	const alarms = 4
	for i := 0; i < alarms; i++ {
		if !a.Push(anomaly.Alarm{ChainID: "down"}, 0) {
			t.Fatalf("push %d rejected", i)
		}
	}

	done := make(chan struct{})
	start := time.Now()
	go func() {
		a.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("Close blocked past its deadline against a failing sink")
	}
	// Bound: at most one full backoff interval of waiting (the in-flight
	// alarm may have started a timer before stop closed) plus attempt time.
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Close took %v, want well under the backoff ladder", elapsed)
	}
	// Draining must keep full retry fidelity: every alarm gets its initial
	// attempt plus all retries even though the waits were skipped.
	if got, want := sink.attempts.Load(), uint64(alarms*7); got != want {
		t.Fatalf("sink saw %d attempts, want %d", got, want)
	}
	if a.Dropped() != alarms {
		t.Fatalf("dropped %d, want %d", a.Dropped(), alarms)
	}
}
