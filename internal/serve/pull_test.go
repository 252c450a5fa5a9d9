package serve

import (
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"testing"
	"time"

	"env2vec/internal/core"
	"env2vec/internal/obs"
)

// oldLingerMS is the wait the timer-driven batcher imposed on a lone
// request by default. Nothing waits for company now, so an idle server
// must answer well inside it.
const oldLingerMS = 2.0

// TestIdleServerForwardsAtOnce: a lone request on an idle server is a pass
// of one that starts the moment a worker is free, and queue_wait + forward
// account for the whole serve.request span.
func TestIdleServerForwardsAtOnce(t *testing.T) {
	s := New(Config{Workers: 1}) // e2vserve's defaults
	defer s.Close()
	s.SetBundle(testBundle(1, 1))

	rng := rand.New(rand.NewSource(1))
	// A preempted test process can make any one request slow; the old
	// design could make none of them fast.
	best := 1e9
	for try := 0; try < 10 && best >= oldLingerMS; try++ {
		req := randomRequest(rng)
		resp, code, err := s.Do(req)
		if err != nil || code != http.StatusOK {
			t.Fatalf("do: %d %v", code, err)
		}
		if resp.BatchSize != 1 {
			t.Fatalf("lone request served in a pass of %d", resp.BatchSize)
		}
		spans := resp.Record.Trace(req.RequestID, req.TraceParent).Spans
		if len(spans) != 3 || spans[0].Name != "serve.request" || spans[1].Name != "serve.queue_wait" || spans[2].Name != "serve.forward" {
			t.Fatalf("spans = %+v, want serve.request, serve.queue_wait, serve.forward", spans)
		}
		if gap := spans[0].DurationMS - spans[1].DurationMS - spans[2].DurationMS; gap < -1e-6 || gap > 1e-6 {
			t.Fatalf("stages do not tile the request: %v = %v + %v + %v", spans[0].DurationMS, spans[1].DurationMS, spans[2].DurationMS, gap)
		}
		if spans[1].DurationMS < oldLingerMS && spans[0].DurationMS < best {
			best = spans[0].DurationMS
		}
	}
	if best >= oldLingerMS {
		t.Fatalf("no lone request was answered in under %v ms (best %v ms)", oldLingerMS, best)
	}
}

// TestDoBatchFrameIsOnePass: a frame of MaxBatch windows is admitted under
// one lock acquisition, so with idle workers on several processors it is
// still exactly one forward pass, never a fragment and a remainder.
func TestDoBatchFrameIsOnePass(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const maxBatch = 32
	s := New(Config{MaxBatch: maxBatch, Workers: 2})
	defer s.Close()
	s.SetBundle(testBundle(1, 1))

	rng := rand.New(rand.NewSource(2))
	reqs := make([]*Request, maxBatch)
	for i := range reqs {
		reqs[i] = randomRequest(rng)
	}
	for frame := 0; frame < 1000; frame++ {
		before := s.Stats().Batches
		for i, r := range s.DoBatch(reqs) {
			if r.Err != nil || r.Resp.BatchSize != maxBatch {
				t.Fatalf("frame %d request %d: %+v", frame, i, r)
			}
		}
		if got := s.Stats().Batches - before; got != 1 {
			t.Fatalf("frame %d took %d forward passes, want 1", frame, got)
		}
	}
}

// TestDoBatchShedsOnlyTail: a frame larger than the free queue space keeps
// its head and loses its tail; an invalid request fails alone and takes no
// queue slot.
func TestDoBatchShedsOnlyTail(t *testing.T) {
	const depth = 8
	s := New(Config{MaxBatch: 4, QueueDepth: depth, Workers: 1})
	defer s.Close()
	s.SetBundle(testBundle(1, 1))

	rng := rand.New(rand.NewSource(3))
	reqs := make([]*Request, depth+5)
	for i := range reqs {
		reqs[i] = randomRequest(rng)
	}
	const bad = 2
	reqs[bad].CF = reqs[bad].CF[:1]
	shedFrom := depth + 1 // depth valid requests fit; the invalid one before them used no slot
	for i, r := range s.DoBatch(reqs) {
		want := http.StatusOK
		switch {
		case i == bad:
			want = http.StatusBadRequest
		case i >= shedFrom:
			want = http.StatusTooManyRequests
		}
		if r.Code != want {
			t.Errorf("request %d: %d (%v), want %d", i, r.Code, r.Err, want)
		}
		if (want == http.StatusOK) != (r.Resp != nil && r.Err == nil) {
			t.Errorf("request %d: response %v, error %v with status %d", i, r.Resp, r.Err, r.Code)
		}
		if want == http.StatusTooManyRequests && r.Err != ErrOverloaded {
			t.Errorf("request %d: shed with %v, want ErrOverloaded", i, r.Err)
		}
	}
	if st := s.Stats(); st.Served != depth || st.Rejected != uint64(len(reqs)-shedFrom) {
		t.Fatalf("served %d rejected %d, want %d and %d", st.Served, st.Rejected, depth, len(reqs)-shedFrom)
	}
}

// TestCloseAnswersQueuedRequests: Close with a backlog behind a busy worker
// refuses new work at once and still answers everything admitted, each
// exactly once (a second answer would close a closed channel and panic).
func TestCloseAnswersQueuedRequests(t *testing.T) {
	stall := make(chan struct{})
	s := New(Config{MaxBatch: 4, QueueDepth: 64, Workers: 1, stall: stall})
	s.SetBundle(testBundle(1, 1))

	rng := rand.New(rand.NewSource(4))
	const queued = 10
	reqs := make([]*Request, queued)
	for i := range reqs {
		reqs[i] = randomRequest(rng)
	}
	held := holdWorker(t, s, randomRequest(rng))
	items := enqueue(t, s, reqs...)

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	for refused := false; !refused; runtime.Gosched() {
		s.queue.mu.Lock()
		refused = s.queue.closed
		s.queue.mu.Unlock()
	}
	if _, code, err := s.Do(randomRequest(rng)); code != http.StatusServiceUnavailable || err != ErrClosed {
		t.Fatalf("closing server admitted work: %d %v", code, err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned with requests still queued")
	default:
	}
	if got := s.Stats().QueueDepth; got != queued {
		t.Fatalf("%d requests queued behind the held pass, want %d", got, queued)
	}

	close(stall)
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close hung")
	}
	await(t, held)
	for _, it := range items {
		await(t, it)
	}
	if st := s.Stats(); st.Served != queued+1 || st.Failed != 0 || st.QueueDepth != 0 {
		t.Fatalf("after Close: served %d failed %d queued %d, want %d 0 0", st.Served, st.Failed, st.QueueDepth, queued+1)
	}
}

// TestBacklogBehindBusyWorkerIsOnePass pins a bug of the timer-driven
// batcher: once its timer fired with every worker busy it sat on an
// under-full batch while later requests piled up behind it, and served
// them a pass later than needed. A worker that pulls takes them all.
func TestBacklogBehindBusyWorkerIsOnePass(t *testing.T) {
	const maxBatch = 8
	stall := make(chan struct{})
	s := New(Config{MaxBatch: maxBatch, QueueDepth: 64, Workers: 1, stall: stall})
	defer s.Close()
	s.SetBundle(testBundle(1, 1))

	rng := rand.New(rand.NewSource(5))
	reqs := make([]*Request, maxBatch-1)
	for i := range reqs {
		reqs[i] = randomRequest(rng)
	}
	held := holdWorker(t, s, randomRequest(rng))
	items := enqueue(t, s, reqs[0])
	// Not synchronisation: this is the gap in which the old batcher's
	// timer fired and committed reqs[0] to a batch of its own.
	time.Sleep(time.Duration(2.5 * oldLingerMS * float64(time.Millisecond)))
	items = append(items, enqueue(t, s, reqs[1:]...)...)
	close(stall)

	await(t, held)
	for i, it := range items {
		if resp := await(t, it); resp.BatchSize != maxBatch-1 {
			t.Fatalf("request %d served in a pass of %d, want all %d together", i, resp.BatchSize, maxBatch-1)
		}
	}
	if got := s.Stats().Batches; got != 2 {
		t.Fatalf("%d forward passes, want 2", got)
	}
}

// TestReloadToAnotherShapeResizesScratch: the worker's tensors are kept
// between passes, so a reload that changes the model's input widths must
// re-size them rather than serve the new model from rows of the old width.
func TestReloadToAnotherShapeResizesScratch(t *testing.T) {
	s := New(Config{MaxBatch: 4, Workers: 1})
	defer s.Close()
	rng := rand.New(rand.NewSource(7))

	narrow := testBundle(1, 1)
	s.SetBundle(narrow)
	req := randomRequest(rng)
	if resp, _, err := s.Do(req); err != nil || math.Abs(resp.Prediction-directPredict(narrow, req)) > 1e-9 {
		t.Fatalf("narrow model: %+v %v", resp, err)
	}

	wide := testBundle(2, 2)
	wide.Model = core.New(core.Config{In: 5, Hidden: 8, GRUHidden: 4, EmbedDim: 3, Window: 4, Seed: 2}, wide.Schema)
	wide.Std = nil
	s.SetBundle(wide)
	reqs := make([]*Request, 3)
	for i := range reqs {
		reqs[i] = randomRequest(rng)
		reqs[i].CF = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		reqs[i].Window = []float64{50, 51, 52, 50 + rng.NormFloat64()}
	}
	for i, r := range s.DoBatch(reqs) {
		if r.Err != nil || math.Abs(r.Resp.Prediction-directPredict(wide, reqs[i])) > 1e-9 {
			t.Fatalf("wide model, request %d: %+v, want %v", i, r, directPredict(wide, reqs[i]))
		}
	}
	if _, code, _ := s.Do(req); code != http.StatusBadRequest {
		t.Fatalf("old-shape request after the reload: %d, want 400", code)
	}
}

// TestPassCostsNoAllocations: what serving allocates depends on how many
// requests were answered, not on how they were grouped into passes. The
// same frame of n costs the same at MaxBatch 1, where it is n passes of
// one, and at MaxBatch n, where it is one pass of n.
func TestPassCostsNoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; gate runs in the non-race pass")
	}
	const n = 8
	rng := rand.New(rand.NewSource(6))
	reqs := make([]*Request, n)
	for i := range reqs {
		reqs[i] = randomRequest(rng)
		reqs[i].RequestID = "feedcafe0000000" + string(rune('0'+i)) // generating an id allocates the same either way
	}
	frameAllocs := func(maxBatch int) float64 {
		// No trace is kept, so none is built: what is left is the frame's own cost.
		s := New(Config{MaxBatch: maxBatch, Workers: 1, Trace: obs.TraceStoreConfig{SampleRate: -1, SlowMS: -1}})
		defer s.Close()
		s.SetBundle(testBundle(1, 1))
		frame := func() {
			for _, r := range s.DoBatch(reqs) {
				if r.Err != nil || r.Resp.BatchSize > maxBatch {
					t.Fatalf("frame request: %+v", r)
				}
			}
		}
		frame() // warm the arena pool and the worker's scratch
		before := s.Stats().Batches
		allocs := testing.AllocsPerRun(100, frame)
		if passes := float64(s.Stats().Batches-before) / 101; maxBatch == n && passes != 1 || maxBatch == 1 && passes != n {
			t.Fatalf("MaxBatch %d: %.2f passes a frame", maxBatch, passes)
		}
		return allocs
	}
	lone, full := frameAllocs(1), frameAllocs(n)
	t.Logf("a frame of %d as %d passes of 1: %.0f allocs; as 1 pass of %d: %.0f allocs", n, n, lone, n, full)
	if lone != full {
		t.Fatalf("%d passes of 1 allocate %.0f, one pass of %d allocates %.0f: a pass costs allocations", n, lone, n, full)
	}
}
