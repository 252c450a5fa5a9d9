package modelserver

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"env2vec/internal/nn"
)

func longPollServer(t *testing.T) (*Registry, *Client) {
	t.Helper()
	reg := NewRegistry()
	srv := httptest.NewServer(&Handler{Registry: reg})
	t.Cleanup(srv.Close)
	return reg, &Client{BaseURL: srv.URL, HTTP: &http.Client{Timeout: 30 * time.Second}}
}

// A GET /versions long-poll parked on an in-sync client must wake the
// moment a publish commits, not at the wait deadline.
func TestVersionsLongPollWakesOnPublish(t *testing.T) {
	reg, c := longPollServer(t)
	if _, err := reg.Publish("m", demoSnapshot(1), 1); err != nil {
		t.Fatal(err)
	}
	_, etag, _, err := c.FetchVersions("", 0)
	if err != nil {
		t.Fatal(err)
	}

	type answer struct {
		changed bool
		took    time.Duration
		err     error
	}
	done := make(chan answer, 1)
	go func() {
		t0 := time.Now()
		_, _, changed, err := c.FetchVersions(etag, 10*time.Second)
		done <- answer{changed: changed, took: time.Since(t0), err: err}
	}()

	time.Sleep(50 * time.Millisecond) // let the poll park server-side
	if _, err := reg.Publish("m", demoSnapshot(2), 2); err != nil {
		t.Fatal(err)
	}
	select {
	case a := <-done:
		if a.err != nil {
			t.Fatalf("long-poll: %v", a.err)
		}
		if !a.changed {
			t.Fatal("long-poll returned unchanged despite a publish")
		}
		if a.took >= 5*time.Second {
			t.Fatalf("long-poll took %s — it slept to the deadline instead of waking on publish", a.took)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never returned after the publish")
	}
}

// With nothing published, a long-poll must hold for the wait duration and
// come back 304-style (changed=false), not error and not return early.
func TestVersionsLongPollExpiresUnchanged(t *testing.T) {
	reg, c := longPollServer(t)
	if _, err := reg.Publish("m", demoSnapshot(1), 1); err != nil {
		t.Fatal(err)
	}
	_, etag, _, err := c.FetchVersions("", 0)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	_, _, changed, err := c.FetchVersions(etag, 150*time.Millisecond)
	took := time.Since(t0)
	if err != nil {
		t.Fatalf("long-poll expiry: %v", err)
	}
	if changed {
		t.Fatal("long-poll reported a change with nothing published")
	}
	if took < 100*time.Millisecond {
		t.Fatalf("long-poll returned after %s — the server ignored ?wait", took)
	}
}

// The latest-version endpoint supports the same parking: a watcher-style
// FetchLatestIfNewerWait wakes on the next publish of its model.
func TestLatestLongPollWakesOnPublish(t *testing.T) {
	reg, c := longPollServer(t)
	if _, err := reg.Publish("m", demoSnapshot(1), 1); err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 1)
	go func() {
		_, ver, changed, err := c.FetchLatestIfNewerWait("m", 1, 10*time.Second)
		if err != nil || !changed {
			done <- -1
			return
		}
		done <- ver
	}()
	time.Sleep(50 * time.Millisecond)
	if _, err := reg.Publish("m", demoSnapshot(2), 2); err != nil {
		t.Fatal(err)
	}
	select {
	case ver := <-done:
		if ver != 2 {
			t.Fatalf("long-poll delivered version %d, want 2", ver)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("latest long-poll never woke on the publish")
	}
}

// A publish of a *different* model must also wake /versions pollers (the
// vector covers all models) but NOT deliver to a latest-poller of model m.
func TestLatestLongPollIgnoresOtherModels(t *testing.T) {
	reg, c := longPollServer(t)
	if _, err := reg.Publish("m", demoSnapshot(1), 1); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	type answer struct {
		changed bool
		err     error
	}
	done := make(chan answer, 1)
	go func() {
		_, _, changed, err := c.FetchLatestIfNewerWait("m", 1, 400*time.Millisecond)
		done <- answer{changed: changed, err: err}
	}()
	time.Sleep(50 * time.Millisecond)
	if _, err := reg.Publish("other", demoSnapshot(9), 2); err != nil {
		t.Fatal(err)
	}
	a := <-done
	if a.err != nil {
		t.Fatal(a.err)
	}
	if a.changed {
		t.Fatal("poller of m woke with a change after a publish to a different model")
	}
	if took := time.Since(t0); took < 300*time.Millisecond {
		t.Fatalf("poller returned after %s — it should have re-parked until its deadline", took)
	}
}

// End to end: a watcher with LongPoll set and an absurdly long Interval
// still sees a publish in O(RTT), proving the re-arm path (not the ticker)
// delivers it.
func TestWatcherLongPollDeliversWithoutInterval(t *testing.T) {
	reg, c := longPollServer(t)
	if _, err := reg.Publish("m", demoSnapshot(1), 1); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var versions []int
	updated := make(chan int, 8)
	w := &Watcher{
		Client: c, Name: "m",
		Interval: time.Hour, // the ticker can never fire inside this test
		LongPoll: 5 * time.Second,
		OnUpdate: func(_ *nn.Snapshot, ver int) {
			mu.Lock()
			versions = append(versions, ver)
			mu.Unlock()
			updated <- ver
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go w.Run(ctx)

	// The immediate first poll delivers v1.
	select {
	case ver := <-updated:
		if ver != 1 {
			t.Fatalf("first delivery was v%d, want v1", ver)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watcher never delivered the initial version")
	}
	// With Interval an hour out, only the re-armed long-poll can carry v2.
	if _, err := reg.Publish("m", demoSnapshot(2), 2); err != nil {
		t.Fatal(err)
	}
	select {
	case ver := <-updated:
		if ver != 2 {
			t.Fatalf("long-poll delivery was v%d, want v2", ver)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watcher's long-poll never delivered the publish (ticker path would take an hour)")
	}
	mu.Lock()
	got := append([]int(nil), versions...)
	mu.Unlock()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("delivery order %v, want [1 2]", got)
	}
}

// A replica with LongPoll converges on a publish in O(RTT) too, through
// the same runLoop re-arm.
func TestReplicaLongPollConverges(t *testing.T) {
	reg, c := longPollServer(t)
	if _, err := reg.Publish("m", demoSnapshot(1), 1); err != nil {
		t.Fatal(err)
	}
	local := NewRegistry()
	synced := make(chan int, 8)
	rp := &Replica{
		Client: c, Registry: local,
		Interval: time.Hour,
		LongPoll: 5 * time.Second,
		OnSync:   func(pulled int) { synced <- pulled },
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go rp.Run(ctx)

	waitPulled := func(label string) {
		deadline := time.After(5 * time.Second)
		for {
			select {
			case n := <-synced:
				if n > 0 {
					return
				}
			case <-deadline:
				t.Fatalf("%s: replica never pulled the version", label)
			}
		}
	}
	waitPulled("initial sync")
	if got := local.latestNumbers()["m"]; got != 1 {
		t.Fatalf("after initial sync local has v%d, want v1", got)
	}
	if _, err := reg.Publish("m", demoSnapshot(2), 2); err != nil {
		t.Fatal(err)
	}
	waitPulled("long-poll sync")
	if got := local.latestNumbers()["m"]; got != 2 {
		t.Fatalf("after publish local has v%d, want v2", got)
	}
}
