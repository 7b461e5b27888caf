// Package core implements DBS3's adaptive parallel execution model (§3 of
// the paper): activation queues per operator instance, a pool of threads per
// operation that is sized independently of the degree of partitioning, main
// and secondary queues to limit access conflicts, an internal activation
// cache to batch queue accesses, and Random/LPT consumption strategies. It
// also implements the four-step thread-allocation scheduler of Figure 5.
package core

import (
	"sync"
	"sync/atomic"

	"dbs3/internal/relation"
)

// Activation is a sequential unit of work: a control message (trigger) when
// Tuple is nil, or one pipelined tuple.
//
// A trigger may be *partial*: when Hi > 0 it covers only the [Lo, Hi) slice
// of the instance's triggered operand. Partial triggers implement the
// paper's proposed future work (§6, "the choice of the grain of parallelism
// independent of the operation semantics"): a triggered operation can be
// split into several sequential units per fragment, raising the activation
// count a and thereby shrinking the skew overhead v = (Pmax/P)(n-1)/a
// without touching the degree of partitioning.
type Activation struct {
	Tuple relation.Tuple
	// Lo and Hi bound a partial trigger; both zero for a whole-fragment
	// trigger. int32 keeps the struct at 32 bytes — activations are copied
	// through route buffers and queue rings on every pipelined hop, so their
	// size is data-plane bandwidth. Fragments are bounded well below 2^31
	// tuples.
	Lo, Hi int32
}

// Queue is the FIFO activation queue of one operator instance (paper Figure
// 4: a buffer protected by a mutex with producer/consumer conditions). A
// triggered queue receives exactly one activation; a pipelined queue
// receives one activation per tuple. Push blocks when the queue is full
// (backpressure); consumers drain batches under the owning operation's
// scheduling lock.
type Queue struct {
	mu      sync.Mutex
	notFull *sync.Cond

	// buf is the ring storage. It starts small and doubles on demand up to
	// capacity — a queue's backpressure bound — so idle instances (and the
	// many queues of a high-degree plan) never pay for their worst case.
	buf      []Activation
	capacity int
	head     int
	count    int
	// length mirrors count for lock-free readers: the consumption
	// strategies scan every queue of an operation on each pick, so reading
	// the length must not take the queue mutex (it is a heuristic — a
	// slightly stale value only affects which queue a worker tries first).
	length atomic.Int64

	closed bool
	// aborted marks the execution as cancelled: Push stops blocking and
	// silently drops, so producers drain instead of deadlocking on a full
	// queue whose consumers have exited.
	aborted bool

	// est is the static LPT estimate of the queue's total work (triggered
	// queues: derived from fragment sizes at plan build time). Written only
	// before the pools start (SetEstimate), read lock-free by lptScore.
	est float64
	// perTupleCost weighs dynamic LPT estimates of pipelined queues; same
	// write-before-run contract as est.
	perTupleCost float64

	// onPush wakes the consuming operation's workers; set by the operation.
	onPush func()
}

// NewQueue creates a queue with the given capacity (minimum 1).
func NewQueue(capacity int) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	q := &Queue{capacity: capacity, perTupleCost: 1}
	q.notFull = sync.NewCond(&q.mu)
	return q
}

// growLocked enlarges the ring storage (still bounded by capacity) so at
// least one more activation fits. The occupied span is relinearized to the
// front of the new ring. Growth goes straight from the initial size to the
// full capacity: a queue that outgrew one batch worth of slack is a hot
// queue, and intermediate doublings would just churn the allocator.
func (q *Queue) growLocked() {
	size := 64
	if len(q.buf) > 0 {
		size = q.capacity
	}
	if size > q.capacity {
		size = q.capacity
	}
	buf := make([]Activation, size)
	for i := 0; i < q.count; i++ {
		buf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = buf
	q.head = 0
}

// SetEstimate sets the static LPT cost estimate (triggered queues). Call
// before the operation's pool starts; lptScore reads it without the lock.
func (q *Queue) SetEstimate(est float64) {
	q.est = est
}

// SetPerTupleCost sets the dynamic LPT weight (pipelined queues). Call
// before the operation's pool starts; lptScore reads it without the lock.
func (q *Queue) SetPerTupleCost(c float64) {
	q.perTupleCost = c
}

// Push appends one activation: PushBatch of a one-element batch, under the
// same protocol (blocks while the queue is full, drops after Abort, panics on
// a closed queue).
func (q *Queue) Push(a Activation) {
	q.PushBatch([]Activation{a})
}

// PushBatch appends a batch of activations under one lock acquire and one
// consumer wake — the producer half of the batch-at-a-time data plane. It
// blocks while the queue is full (backpressure), drops silently after Abort,
// and panics on a closed queue: producers are wired to close queues only
// after their last push, so that is an engine bug, not a runtime condition.
// When the batch does not fit, PushBatch fills the queue, wakes consumers
// for the part already delivered, and blocks until space frees for the rest.
// The queue stores the individual activations, so consumers — and every
// counter and LPT estimate derived from queue contents — still see tuples,
// never batches.
//
// The caller keeps ownership of as: activations are copied into the ring
// buffer, so the slice may be reused as soon as PushBatch returns.
func (q *Queue) PushBatch(as []Activation) {
	i := 0
	for i < len(as) {
		q.mu.Lock()
		for q.count == q.capacity && !q.closed && !q.aborted {
			q.notFull.Wait()
		}
		if q.aborted {
			q.mu.Unlock()
			return
		}
		if q.closed {
			q.mu.Unlock()
			panic("core: push to closed queue")
		}
		// Copy in contiguous spans (the ring's wrap point) — memmove, not a
		// per-element store loop — growing the ring storage as needed.
		for i < len(as) && q.count < q.capacity {
			if q.count == len(q.buf) {
				q.growLocked()
			}
			tail := (q.head + q.count) % len(q.buf)
			span := len(q.buf) - tail
			if free := len(q.buf) - q.count; span > free {
				span = free
			}
			if rem := len(as) - i; span > rem {
				span = rem
			}
			copy(q.buf[tail:tail+span], as[i:i+span])
			q.count += span
			i += span
		}
		q.length.Store(int64(q.count))
		notify := q.onPush
		q.mu.Unlock()
		// Wake consumers before (possibly) blocking for the remainder: a
		// full queue only drains if its consumers know there is work.
		if notify != nil {
			notify()
		}
	}
}

// PopBatch removes up to max activations, appending them to dst. It never
// blocks.
func (q *Queue) PopBatch(max int, dst []Activation) []Activation {
	q.mu.Lock()
	n := q.count
	if n > max {
		n = max
	}
	// Drain in at most two contiguous spans — bulk copy plus bulk clear
	// (clearing drops Tuple references so consumed activations do not pin
	// their tuples until the slot is overwritten).
	for rem := n; rem > 0; {
		span := len(q.buf) - q.head
		if span > rem {
			span = rem
		}
		dst = append(dst, q.buf[q.head:q.head+span]...)
		clear(q.buf[q.head : q.head+span])
		q.head = (q.head + span) % len(q.buf)
		rem -= span
	}
	q.count -= n
	if n > 0 {
		q.length.Store(int64(q.count))
		q.notFull.Broadcast()
	}
	q.mu.Unlock()
	return dst
}

// Len returns the number of queued activations. It is lock-free (and so at
// worst momentarily stale) because the consumption strategies call it for
// every queue of an operation on every pick.
func (q *Queue) Len() int {
	return int(q.length.Load())
}

// Close marks the queue as receiving no further activations. Blocked
// producers are released (they will panic — see Push); consumers drain the
// remainder and then treat the queue as exhausted.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.notFull.Broadcast()
	notify := q.onPush
	q.mu.Unlock()
	if notify != nil {
		notify()
	}
}

// Abort marks the execution as cancelled. Blocked producers are released and
// further pushes are dropped; pending activations stay in the buffer but the
// operation's workers exit without consuming them.
func (q *Queue) Abort() {
	q.mu.Lock()
	q.aborted = true
	q.notFull.Broadcast()
	notify := q.onPush
	q.mu.Unlock()
	if notify != nil {
		notify()
	}
}

// Drained reports whether the queue is closed and empty.
func (q *Queue) Drained() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed && q.count == 0
}

// lptScore is the LPT priority of the queue holding n activations (the
// caller's Len, read once per pick): remaining estimated work. For triggered
// queues the static estimate dominates; for pipelined queues the score is
// queue length times the per-tuple cost.
func (q *Queue) lptScore(n int) float64 {
	if n == 0 {
		return 0
	}
	if q.est > 0 {
		return q.est
	}
	return float64(n) * q.perTupleCost
}
