package serve

import "sync"

// queue is the bounded FIFO between admission and the forward-pass workers.
// Workers pull from it directly: a free worker takes everything queued, up
// to MaxBatch, the instant there is at least one item, so a pass of one
// starts at once on an idle server and passes grow exactly while every
// worker is busy. Batch size is the backlog a worker finds, not a wait.
type queue struct {
	mu     sync.Mutex
	ready  sync.Cond // signalled when items arrive and when the queue closes
	items  []*item   // oldest first; cap is the admission bound
	closed bool
}

func newQueue(depth int) *queue {
	q := &queue{items: make([]*item, 0, depth)}
	q.ready.L = &q.mu
	return q
}

// push appends the items not yet refused (admission sets err on an invalid
// one, and it takes no slot), in order, under one lock acquisition, so a
// worker sees none of a frame or all of what fit. What is admitted is always
// a prefix: items[from:] were not — overflow sheds the tail — and err says
// why (ErrOverloaded or ErrClosed); from is len(items) when all got in.
func (q *queue) push(items []item) (from int, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return 0, ErrClosed
	}
	before := len(q.items)
	from = len(items)
	for i := range items {
		if items[i].err != nil {
			continue
		}
		if len(q.items) == cap(q.items) {
			from, err = i, ErrOverloaded
			break
		}
		q.items = append(q.items, &items[i])
	}
	if len(q.items) > before {
		q.ready.Signal()
	}
	return from, err
}

// pull blocks until at least one item is queued, then moves up to cap(dst)
// of them into dst. It returns nil once the queue is closed and drained.
func (q *queue) pull(dst []*item) []*item {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.ready.Wait()
	}
	if len(q.items) == 0 {
		return nil
	}
	n := min(len(q.items), cap(dst))
	dst = append(dst[:0], q.items[:n]...)
	rest := copy(q.items, q.items[n:]) // at most the admission bound of pointers
	clear(q.items[rest:])
	q.items = q.items[:rest]
	if rest > 0 {
		q.ready.Signal() // more than one pass is waiting: wake the next worker
	}
	return dst
}

func (q *queue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// close stops admission; workers drain what is queued and then exit.
func (q *queue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.ready.Broadcast()
}
