// Package runtime turns the single-shot execution engine into a concurrent
// query runtime. Its Manager owns a machine-wide budget of threads and
// working-memory bytes shared by every concurrently executing query, admits
// queries through a bounded two-class queue, and closes the paper's [Rahm93]
// feedback loop: the Utilization that step 1 of the Figure 5 scheduler uses
// to shrink a query's degree of parallelism "to increase the multi-user
// throughput" is no longer a hand-set constant but is measured from the
// threads currently allocated to other queries at admission time, smoothed
// by an EWMA over recently completed queries so the signal stays informative
// between bursts.
//
// Admission is estimate, then ticket, then one critical section. The plan is
// costed before the query queues, with no lock held (core.EstimatePlan:
// everything that does not depend on load). The query then waits in its line
// and — without the manager's mutex ever being released between the wait
// and the reservation — measures utilization, runs the scheduler's
// load-dependent half (core.Estimate.Allocate, microseconds of arithmetic)
// and reserves. Threads and bytes are one reservation value with one fit,
// take, give and resize; only the sizing policies differ per resource.
//
// Admission is split from execution so callers can stream results: Admit
// returns an Admission holding the reservation; the caller runs
// core.ExecuteAllocated at its leisure (possibly feeding a row cursor) and
// calls Admission.Finish when the execution ends — including when a client
// closes its cursor mid-result, which is how streaming queries hand threads
// back early. Begin/Run.Execute wrap that protocol.
//
// Reservations are renegotiable mid-flight: at each chain boundary of a
// multi-chain query — the paper's materialization points — the engine calls
// Manager.Readmit with the next chain's desired thread count, and the
// manager returns the finished chain's surplus threads and bytes to the
// budget or grows the thread hold into freed headroom, re-running the
// scheduler's utilization throttle with a fresh measurement. A long batch
// query thus stops pinning its admission-time reservation through chains
// that need less, and can expand into budget released by completed peers.
package runtime

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"sync"

	"dbs3/internal/core"
	"dbs3/internal/lera"
	"dbs3/internal/storage"
)

// ErrQueueFull is returned when a query arrives while the bounded admission
// queue is at capacity. Callers should shed the query (or retry later)
// rather than pile unbounded demand onto a saturated machine.
var ErrQueueFull = errors.New("runtime: admission queue full")

// ErrClosed is returned for queries submitted to a closed manager.
var ErrClosed = errors.New("runtime: manager closed")

// Priority is a query's admission class. Interactive queries are served
// ahead of batch queries at the ticket line; aging guarantees batch is never
// starved: a batch query bypassed four times in a row is promoted.
type Priority int

const (
	// PriorityInteractive is the default class: short, latency-sensitive
	// queries served first.
	PriorityInteractive Priority = iota
	// PriorityBatch marks long, throughput-oriented queries that yield to
	// interactive traffic.
	PriorityBatch

	priorityCount
)

// String implements fmt.Stringer.
func (p Priority) String() string {
	switch p {
	case PriorityInteractive:
		return "interactive"
	case PriorityBatch:
		return "batch"
	default:
		return "unknown"
	}
}

// Config sizes a QueryManager.
type Config struct {
	// Budget is the machine-wide thread budget shared by all concurrent
	// queries; 0 defaults to GOMAXPROCS. The sum of threads allocated to
	// in-flight queries never exceeds it.
	Budget int
	// MaxQueued bounds the admission queue: queries beyond it are rejected
	// with ErrQueueFull instead of waiting. A quarter of the bound (when
	// it is at least 4) is reserved for interactive arrivals — batch
	// queries are rejected earlier so a batch flood cannot shed the
	// latency-sensitive class. 0 defaults to 4*Budget.
	MaxQueued int
	// MemoryBudget is the machine-wide working-memory budget in bytes shared
	// by all concurrent queries, reserved next to threads: at admission each
	// query is granted min(its cost-model memory estimate, its caller
	// ceiling, the free budget), blocking operators spill to disk beyond
	// the grant, and a query whose minimum grant does not fit waits in its
	// line instead of OOMing the process (a query whose estimate is zero
	// holds no memory and waits for none). 0 disables memory admission —
	// queries run with whatever per-query ceiling the caller set, unmanaged.
	MemoryBudget int64
}

// Stats is a snapshot of the manager's aggregate counters.
type Stats struct {
	// Admitted, Completed, Failed, Cancelled and Rejected count queries
	// over the manager's lifetime. Failed counts both planning errors at
	// the admission point (bad data, missing relations — these never
	// reach Admitted) and execution errors; Cancelled counts context
	// cancellations both while queued and mid-execution (cursor Close
	// mid-result lands here too); Rejected counts ErrQueueFull sheds.
	// Admitted = Completed + Failed-during-execution +
	// Cancelled-during-execution + Active once drained.
	Admitted, Completed, Failed, Cancelled, Rejected int64
	// Queued and Active are the current admission-queue length and the
	// number of queries executing right now. QueuedInteractive and
	// QueuedBatch split Queued by priority class.
	Queued, QueuedInteractive, QueuedBatch, Active int
	// ThreadsInFlight is the thread count currently allocated across active
	// queries; PeakThreads is its lifetime high-water mark (always <= the
	// budget).
	ThreadsInFlight, PeakThreads int
	// MemBudget is the configured memory budget (0 = memory admission off);
	// MemInFlight is the byte total currently reserved by active queries and
	// PeakMem its lifetime high-water mark (always <= MemBudget).
	MemBudget, MemInFlight, PeakMem int64
	// SpilledBytes and SpillPasses total the larger-than-memory activity of
	// finished and in-flight queries: bytes written to spill runs and
	// partitioning/merge passes taken, as reported by each query's spill
	// accountant.
	SpilledBytes, SpillPasses int64
	// MemReturnedEarly totals the bytes chain-boundary renegotiations handed
	// back to the memory budget mid-flight (before Finish) — the memory
	// analogue of ThreadsReturnedEarly. Memory renegotiation is shrink-only.
	MemReturnedEarly int64
	// Readmissions counts chain-boundary renegotiations: every time a
	// multi-chain query re-ran the Figure 5 scheduler step at a
	// materialization point (Manager.Readmit), whether or not the grant
	// changed. ThreadsReturnedEarly totals the threads such renegotiations
	// handed back to the budget mid-flight (before Finish);
	// ThreadsGrownMidFlight totals the threads they took out of freed
	// budget to grow a later chain.
	Readmissions, ThreadsReturnedEarly, ThreadsGrownMidFlight int64
	// SmoothedUtilization is the EWMA over recently completed queries'
	// leftover utilization — the slow half of the admission feedback
	// signal.
	SmoothedUtilization float64
	// PlanCacheHits and PlanCacheMisses count the facade's plan-cache
	// outcomes — every statement resolution while this manager was
	// installed, including Prepare and EXPLAIN, not just executed
	// queries. They measure compilations avoided, so they are not
	// comparable 1:1 with Admitted (a prepared statement resolves once
	// and executes many times).
	PlanCacheHits, PlanCacheMisses int64
}

// QueryStats describes one admitted query's passage through the manager —
// the per-query half of the feedback loop.
type QueryStats struct {
	// Utilization is the effective processor utilization fed to the
	// scheduler: the maximum of the caller's Options value and Smoothed.
	Utilization float64
	// Measured is the raw instantaneous sample at admission: threads
	// already allocated to other queries divided by the budget.
	Measured float64
	// Smoothed blends Measured with the manager's EWMA over recently
	// completed queries' utilization. The blend only ever raises the
	// sample (a calm instant right after a burst is still treated as
	// busy); a genuinely loaded instant is never watered down by a calm
	// history.
	Smoothed float64
	// Threads is the thread count reserved for (and used by) the query.
	Threads int
	// Available is the budget headroom the query was admitted into.
	Available int
	// Priority is the admission class the query was queued under.
	Priority Priority
	// ChainThreads is the per-chain thread trace of a multi-chain query:
	// the totals granted at each materialization-point renegotiation, in
	// chain order. Empty for single-chain queries, explicit-thread queries
	// and unmanaged executions (populated at Finish).
	ChainThreads []int
	// MemoryGrant is the working-memory byte budget reserved for the query
	// at admission — min(cost-model estimate, caller ceiling, free budget).
	// 0 when memory admission is off or the plan has no blocking operators.
	MemoryGrant int64
	// SpilledBytes and SpillPasses record the query's larger-than-memory
	// activity: bytes written to spill runs and partition/merge passes
	// taken. Zero for queries that fit their grant.
	SpilledBytes, SpillPasses int64
}

// ewmaAlpha weighs a completed query's leftover-utilization sample into the
// manager's EWMA; ewmaBlend weighs the EWMA against the instantaneous sample
// at admission.
const (
	ewmaAlpha = 0.3
	ewmaBlend = 0.5
)

// minMemGrant is the smallest working-memory grant a query with any memory
// need waits for (1 MiB, clamped to the budget when the budget is smaller).
// Admission never hands out a zero grant to a query that needs memory — a
// zero grant would read as "unlimited" to the spill accountant — so such a
// query arriving while the budget is exhausted queues until at least this
// much frees up, rather than OOMing or running unbounded. A query whose
// estimate is zero needs no grant and does not wait for one.
const minMemGrant = 1 << 20

// batchAging bounds batch starvation: after this many consecutive
// interactive admissions while a batch query waited, the batch head is
// served next as soon as its need fits the free budget; after twice this
// many, it is served next unconditionally — blocking the line until its
// threads accumulate.
const batchAging = 4

// reservation is an amount of the two admitted resources. It is the type of
// the budget, of the in-flight total and its peak, of a waiter's need and of
// an admission's hold, so each verb on the ledger — fit, take, give, resize
// — is written once for both resources. With memory admission off the byte
// budget is 0 and so is every need and hold: the byte half of each verb then
// does nothing, without a branch. What differs per resource is policy — how
// Admit sizes a grant and how Readmit picks a target — and that stays with
// the caller.
type reservation struct {
	threads int
	bytes   int64
}

// Manager is the concurrent query runtime: a machine-wide thread budget, a
// bounded two-class admission queue, and measured-utilization feedback into
// each admitted query's scheduler. The zero value is not usable; call
// NewManager.
//
// Admission within a class is FIFO by ticket: a query with a large explicit
// thread request cannot be starved by a stream of small queries — it blocks
// its line until its threads free up (head-of-line blocking is the price of
// fairness). Across classes, interactive is served before batch, with aging
// so batch is never starved.
type Manager struct {
	budget    reservation // bytes 0 = memory admission off
	maxQueued int

	mu   sync.Mutex
	cond *sync.Cond

	inFlight reservation // held by admissions and Reserve calls
	peak     reservation // per-resource high-water mark of inFlight
	active   int
	closed   bool

	// Two FIFO ticket lines, one per priority class; headLocked picks the
	// single ticket allowed to admit next.
	nextTicket  int64
	lines       [priorityCount][]waiter
	iStreak     int // consecutive interactive admissions while batch waited
	ewma        float64
	ewmaSet     bool
	cacheHits   int64
	cacheMisses int64

	admitted        int64
	completed       int64
	failed          int64
	cancelled       int64
	rejected        int64
	readmissions    int64
	threadsReturned int64
	threadsGrown    int64
	memReturned     int64
	spilledBytes    int64
	spillPasses     int64
}

// NewManager creates a manager with the given configuration.
func NewManager(cfg Config) *Manager {
	if cfg.Budget <= 0 {
		cfg.Budget = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueued <= 0 {
		cfg.MaxQueued = 4 * cfg.Budget
	}
	m := &Manager{budget: reservation{cfg.Budget, max(cfg.MemoryBudget, 0)}, maxQueued: cfg.MaxQueued}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// fitsLocked reports whether need fits the free budget.
func (m *Manager) fitsLocked(need reservation) bool {
	return need.threads <= m.budget.threads-m.inFlight.threads && need.bytes <= m.budget.bytes-m.inFlight.bytes
}

// takeLocked moves r from the free budget into flight.
func (m *Manager) takeLocked(r reservation) {
	m.inFlight.threads += r.threads
	m.inFlight.bytes += r.bytes
	m.peak.threads = max(m.peak.threads, m.inFlight.threads)
	m.peak.bytes = max(m.peak.bytes, m.inFlight.bytes)
}

// giveLocked returns r to the free budget and wakes the line to look at the
// new headroom (giving nothing wakes no one).
func (m *Manager) giveLocked(r reservation) {
	if r == (reservation{}) {
		return
	}
	m.inFlight.threads -= r.threads
	m.inFlight.bytes -= r.bytes
	m.cond.Broadcast()
}

// resizeLocked moves an admission's hold to the given amounts: what grows is
// taken, what shrinks is given, and the renegotiation counters record both.
// The caller has already capped growth at the free budget.
func (m *Manager) resizeLocked(a *Admission, to reservation) {
	grow := reservation{max(to.threads-a.held.threads, 0), max(to.bytes-a.held.bytes, 0)}
	shrink := reservation{max(a.held.threads-to.threads, 0), max(a.held.bytes-to.bytes, 0)}
	m.takeLocked(grow)
	m.giveLocked(shrink)
	m.threadsGrown += int64(grow.threads)
	m.threadsReturned += int64(shrink.threads)
	m.memReturned += shrink.bytes
	a.held = to
}

// waiter is one queued ticket and what it must see free before its turn.
type waiter struct {
	ticket int64
	need   reservation
}

// headLocked returns the ticket allowed to admit next, -1 when nobody waits.
func (m *Manager) headLocked() int64 {
	iLine, bLine := m.lines[PriorityInteractive], m.lines[PriorityBatch]
	switch {
	case len(iLine) == 0 && len(bLine) == 0:
		return -1
	case len(bLine) == 0:
		return iLine[0].ticket
	case len(iLine) == 0:
		return bLine[0].ticket
	}
	// Both classes wait. Aging is soft at first: the batch head is promoted
	// once the streak trips, but only when its need actually fits the
	// current headroom — a batch query too big to run must not stall
	// interactive admissions that would fit. Past twice the aging bound the
	// promotion turns hard (head regardless of fit), so a big batch query
	// still gets the head-of-line blocking it needs to ever accumulate its
	// threads.
	if m.iStreak >= 2*batchAging || m.iStreak >= batchAging && m.fitsLocked(bLine[0].need) {
		return bLine[0].ticket
	}
	return iLine[0].ticket
}

// removeLocked takes a ticket out of its line — admitted or abandoned — and
// wakes the line so the next head can look. The aging streak only measures
// bypasses of the batch queries currently waiting: when the last one leaves,
// the streak resets so a later batch arrival starts aging from zero instead
// of inheriting instant promotion.
func (m *Manager) removeLocked(pri Priority, ticket int64) {
	line := m.lines[pri]
	for i, w := range line {
		if w.ticket == ticket {
			m.lines[pri] = append(line[:i], line[i+1:]...)
			break
		}
	}
	if pri == PriorityBatch && len(m.lines[PriorityBatch]) == 0 {
		m.iStreak = 0
	}
	m.cond.Broadcast()
}

// wake makes every waiter re-check its context; it runs when one is
// cancelled.
func (m *Manager) wake() {
	m.mu.Lock()
	m.cond.Broadcast()
	m.mu.Unlock()
}

// awaitTurnLocked is the one way into the budget: it joins pri's line —
// unless the manager is closed or the line is at its bound — and blocks
// until the ticket heads the line with need free, or the manager closes or
// ctx is cancelled. m.mu is held on return either way. On success the caller
// measures what it needs to and calls reserveLocked with the ticket before
// unlocking: because the lock is never released in between, the headroom
// measured after the wait is the headroom reserved from. The fit is what
// makes a query arriving into an exhausted budget queue instead of
// overcommitting: it waits here until peers finish (or renegotiate down).
func (m *Manager) awaitTurnLocked(ctx context.Context, pri Priority, need reservation) (ticket int64, err error) {
	if m.closed {
		return 0, ErrClosed
	}
	// Batch arrivals stop short of the full queue bound so a batch flood
	// cannot shed the latency-sensitive class — the reserved slots are
	// usable by interactive arrivals only.
	limit := m.maxQueued
	if pri == PriorityBatch {
		limit -= m.maxQueued / 4
	}
	if len(m.lines[PriorityInteractive])+len(m.lines[PriorityBatch]) >= limit {
		m.rejected++
		return 0, ErrQueueFull
	}
	ticket = m.nextTicket
	m.nextTicket++
	m.lines[pri] = append(m.lines[pri], waiter{ticket, need})
	waiting := false
	for {
		err = ctx.Err()
		if m.closed {
			err = ErrClosed
		}
		if err != nil {
			m.removeLocked(pri, ticket)
			return 0, err
		}
		if m.headLocked() == ticket && m.fitsLocked(need) {
			return ticket, nil
		}
		if !waiting {
			// Only a ticket that actually sleeps needs waking on cancel.
			waiting = true
			defer context.AfterFunc(ctx, m.wake)()
		}
		m.cond.Wait()
	}
}

// reserveLocked ends a successful awaitTurnLocked: the ticket leaves its
// line, hold leaves the free budget, and the cross-class aging streak moves.
func (m *Manager) reserveLocked(pri Priority, ticket int64, hold reservation) {
	m.removeLocked(pri, ticket)
	m.takeLocked(hold)
	if pri == PriorityInteractive && len(m.lines[PriorityBatch]) > 0 {
		m.iStreak++
	} else {
		m.iStreak = 0
	}
}

// Budget returns the machine-wide thread budget.
func (m *Manager) Budget() int { return m.budget.threads }

// NotePlanCache records one facade plan-cache outcome, surfaced in Stats.
func (m *Manager) NotePlanCache(hit bool) {
	m.mu.Lock()
	if hit {
		m.cacheHits++
	} else {
		m.cacheMisses++
	}
	m.mu.Unlock()
}

// Stats snapshots the aggregate counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	qi, qb := len(m.lines[PriorityInteractive]), len(m.lines[PriorityBatch])
	return Stats{
		Admitted:              m.admitted,
		Completed:             m.completed,
		Failed:                m.failed,
		Cancelled:             m.cancelled,
		Rejected:              m.rejected,
		Queued:                qi + qb,
		QueuedInteractive:     qi,
		QueuedBatch:           qb,
		Active:                m.active,
		ThreadsInFlight:       m.inFlight.threads,
		PeakThreads:           m.peak.threads,
		MemBudget:             m.budget.bytes,
		MemInFlight:           m.inFlight.bytes,
		PeakMem:               m.peak.bytes,
		SpilledBytes:          m.spilledBytes,
		SpillPasses:           m.spillPasses,
		MemReturnedEarly:      m.memReturned,
		Readmissions:          m.readmissions,
		ThreadsReturnedEarly:  m.threadsReturned,
		ThreadsGrownMidFlight: m.threadsGrown,
		SmoothedUtilization:   m.ewma,
		PlanCacheHits:         m.cacheHits,
		PlanCacheMisses:       m.cacheMisses,
	}
}

// blendLocked blends an instantaneous utilization sample with the
// completion EWMA, only ever upward: a calm instant right after a burst is
// still treated as busy, while a genuinely loaded instant is never watered
// down by a calm history. Shared by the admission sample and the
// chain-boundary renegotiation so the two throttles cannot drift apart.
func (m *Manager) blendLocked(u float64) float64 {
	if m.ewmaSet {
		u = max(u, ewmaBlend*u+(1-ewmaBlend)*m.ewma)
	}
	return u
}

// Readmit renegotiates an in-flight admission's reservation at a chain
// boundary — the paper's materialization points, where a plan-based
// re-optimization is safe because no operator is mid-pipeline. chain is the
// index of the chain about to start, want its desired thread count
// (Allocation.ChainWant) and floor its node count — what the chain actually
// runs with at least, since every node pool needs one thread. Each resource
// gets its target by its own policy, then one resize moves the hold:
//
//   - Threads re-run the Figure 5 step-1 throttle against utilization
//     measured freshly from the threads other queries hold right now
//     (blended, like the admission sample, with the completion EWMA so a
//     momentary trough reads as busy), never below floor — a smaller grant
//     could not be honored and would overstate the threads returned — and
//     never above held + free. A surplus returns to the budget immediately
//     (queued admissions are woken); a chain that wants more grows into free
//     headroom without ever blocking, because a mid-flight query that waited
//     for threads while holding threads could deadlock against the line.
//     When the free headroom is below floor the grant lands under it — the
//     same nominal-ledger mismatch an admission into a squeezed budget has,
//     never an overcommit.
//   - Bytes only shrink, to the peak estimate of the chains still to run
//     (Allocation.ChainMem[chain:]), floored at the minimum grant so the
//     accountant is never retargeted to zero (zero reads as "unlimited").
//     Growth would reintroduce hold-and-wait; a chain that turns out to need
//     more than the shrunk hold degrades by spilling. The estimate ledger is
//     approximate (an intermediate is priced into the chain that wrote it);
//     the spill accountant, retargeted by the caller, is the enforcement
//     boundary. chain out of range skips the memory step.
//
// The granted thread total (>= 1) is returned; the engine redistributes the
// chain's node threads over it (core.Options.Readmit). Releases do not feed
// the utilization EWMA — only Finish samples it, once per query. Calling
// Readmit on a finished admission renegotiates nothing and hands the request
// back.
func (m *Manager) Readmit(a *Admission, chain, want, floor int) int {
	floor = min(max(floor, 1), m.budget.threads)
	want = max(want, floor)
	if a == nil || a.m != m {
		return want
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if a.finished {
		return want
	}
	to := a.held
	others := m.inFlight.threads - a.held.threads
	to.threads = want
	if u := m.blendLocked(float64(others) / float64(m.budget.threads)); u > 0 && u < 1 {
		to.threads = int(math.Round(float64(want) * (1 - u)))
	}
	to.threads = min(max(to.threads, floor), m.budget.threads-others) // held + free = budget - others
	if a.held.bytes > 0 && chain >= 0 && chain < len(a.alloc.ChainMem) {
		remain := max(slices.Max(a.alloc.ChainMem[chain:]), min(a.Stats.MemoryGrant, minMemGrant))
		to.bytes = min(remain, a.held.bytes)
	}
	m.resizeLocked(a, to)
	a.trace = append(a.trace, to.threads)
	m.readmissions++
	return to.threads
}

// Close rejects all future submissions and wakes queued queries, which
// return ErrClosed. In-flight executions are not interrupted.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
}

// Reserve takes n threads out of the budget for work outside the manager
// (or to simulate load in tests), waiting in the interactive line until they
// are available. A waiting Reserve counts against MaxQueued and is visible
// in Stats.Queued/QueuedInteractive like any queued query — the queue bound
// and the pressure /stats reports cover every consumer of the line, not
// just Admit. The returned release function returns the threads; it is
// idempotent. Releases do not feed the utilization EWMA — that signal
// samples query completions only (Admission.Finish).
func (m *Manager) Reserve(ctx context.Context, n int) (release func(), err error) {
	hold := reservation{threads: min(max(n, 0), m.budget.threads)}
	m.mu.Lock()
	ticket, err := m.awaitTurnLocked(ctx, PriorityInteractive, hold)
	if err == nil {
		m.reserveLocked(PriorityInteractive, ticket, hold)
	}
	m.mu.Unlock()
	if err != nil {
		return nil, err
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			m.mu.Lock()
			m.giveLocked(hold)
			m.mu.Unlock()
		})
	}, nil
}

// Admission is one admitted query's reservation against the budget. The
// caller owns the reserved threads until Finish returns them; Stats and
// Alloc describe what the admission decided. Between chains of a
// multi-chain query the reservation is renegotiable: Manager.Readmit
// adjusts the hold at each materialization point.
type Admission struct {
	m     *Manager
	alloc core.Allocation
	// Stats is the per-query feedback record (effective utilization fed to
	// the scheduler, reserved threads, memory grant, admission class).
	// ChainThreads is filled in at Finish; reading Stats while the query
	// still executes races with renegotiation.
	Stats QueryStats

	once sync.Once

	// held is what the admission currently reserves (starts at the
	// admission-time grant, renegotiated by Readmit, zero after Finish);
	// trace records each renegotiated thread grant; finished blocks late
	// Readmit calls. All guarded by m.mu.
	held     reservation
	finished bool
	trace    []int
}

// Alloc is the thread allocation reserved for the query; pass it to
// core.ExecuteAllocated together with the Options Admit adjusted.
func (a *Admission) Alloc() core.Allocation { return a.alloc }

// MemoryGrant returns the working-memory bytes granted at admission (0 when
// memory admission is off or the plan estimates no blocking-operator state).
// This is the grant a query's spill accountant starts from.
func (a *Admission) MemoryGrant() int64 { return a.Stats.MemoryGrant }

// MemoryHeld returns the working-memory bytes currently reserved — the
// admission grant, minus what chain-boundary renegotiations handed back.
func (a *Admission) MemoryHeld() int64 {
	a.m.mu.Lock()
	defer a.m.mu.Unlock()
	return a.held.bytes
}

// NoteSpill records a query's larger-than-memory activity — bytes written
// to spill runs and partition/merge passes — into the manager's lifetime
// counters and the admission's QueryStats. Call it once, when the execution
// ends and the spill accountant's totals are final (before or after Finish).
func (a *Admission) NoteSpill(bytes, passes int64) {
	if bytes == 0 && passes == 0 {
		return
	}
	m := a.m
	m.mu.Lock()
	m.spilledBytes += bytes
	m.spillPasses += passes
	a.Stats.SpilledBytes += bytes
	a.Stats.SpillPasses += passes
	m.mu.Unlock()
}

// Finish returns the reservation — whatever Readmit has left of it — to the
// budget and classifies the outcome from err itself: nil = completed, a
// context cancellation or deadline = cancelled, anything else = failed. An
// operator failure stays Failed even when the caller's context also died
// (cancel-on-error), so the ledgers stay truthful. It is idempotent; later
// calls are no-ops. Finish also feeds the completion into the manager's
// utilization EWMA.
func (a *Admission) Finish(err error) {
	a.once.Do(func() {
		m := a.m
		m.mu.Lock()
		defer m.mu.Unlock()
		a.finished = true
		a.Stats.ChainThreads = append([]int(nil), a.trace...)
		m.giveLocked(a.held)
		a.held = reservation{}
		m.active--
		switch {
		case err == nil:
			m.completed++
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			m.cancelled++
		default:
			m.failed++
		}
		// The leftover load this query's run leaves behind is the EWMA
		// sample: under sustained concurrency completions sample high, so
		// a query arriving in a momentary trough is still throttled; a
		// machine running one query at a time samples zero and keeps
		// single-user parallelism.
		sample := float64(m.inFlight.threads) / float64(m.budget.threads)
		if m.ewmaSet {
			m.ewma = ewmaAlpha*sample + (1-ewmaAlpha)*m.ewma
		} else {
			m.ewma = sample
			m.ewmaSet = true
		}
	})
}

// Admit reserves one query's threads and working memory against the shared
// budget, in three steps.
//
// Estimate, no lock held: the plan is checked against db and costed
// (core.EstimatePlan). A plan that cannot be costed fails here — counted in
// Stats.Failed, never queued — and the memory estimate is known before the
// wait, so a query that needs no memory does not wait for any.
//
// Ticket: the query joins its class line (bounded by MaxQueued across
// classes) and waits until the budget has its need free — one thread for
// auto-threaded queries, the full explicit opts.Threads otherwise (clamped
// to the budget), plus the minimum memory grant when its estimate is
// non-zero.
//
// Reserve, in the critical section the wait returned in: the manager
// measures utilization from the threads other queries hold, blends it with
// the completion EWMA, caps the query's usable processors at the remaining
// headroom, runs the Figure 5 scheduler (core.Estimate.Allocate) and takes
// the chosen thread count and the memory grant — so nothing can claim the
// measured headroom before it is reserved, and the reserved totals never
// exceed the budget. opts is adjusted in place (Utilization, Processors,
// Machine, MemoryBudget) and must be the Options later passed to
// ExecuteAllocated.
//
// The caller must call Finish on the returned Admission exactly when the
// execution ends — normal completion, failure, or a streaming client closing
// its cursor mid-result — to hand the reservation back.
func (m *Manager) Admit(ctx context.Context, plan *lera.Plan, db core.DB, opts *core.Options, pri Priority) (*Admission, error) {
	est, err := core.EstimatePlan(plan, db, *opts)
	if err != nil {
		m.mu.Lock()
		m.failed++
		m.mu.Unlock()
		return nil, err
	}
	return m.admit(ctx, est, opts, pri)
}

// admit is Admit's ticket and reserve steps, for an estimate already made.
func (m *Manager) admit(ctx context.Context, est core.Estimate, opts *core.Options, pri Priority) (*Admission, error) {
	if pri < 0 || pri >= priorityCount {
		pri = PriorityInteractive
	}
	opts.Threads = min(opts.Threads, m.budget.threads)
	need := reservation{threads: max(opts.Threads, 1)}
	if est.Mem > 0 {
		need.bytes = min(minMemGrant, m.budget.bytes)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	ticket, err := m.awaitTurnLocked(ctx, pri, need)
	if err != nil {
		if err != ErrClosed && err != ErrQueueFull {
			m.cancelled++
		}
		return nil, err
	}

	// Admission point: measure concurrent load and feed it to the
	// scheduler. Processors is squeezed to the instantaneous headroom so the
	// initial allocation fits; Machine keeps the whole budget in view so a
	// chain-boundary renegotiation can grow into budget freed later.
	available := m.budget.threads - m.inFlight.threads
	measured := float64(m.inFlight.threads) / float64(m.budget.threads)
	smoothed := m.blendLocked(measured)
	opts.Utilization = max(opts.Utilization, smoothed)
	if opts.Processors <= 0 || opts.Processors > available {
		opts.Processors = available
	}
	opts.Machine = m.budget.threads
	alloc := est.Allocate(*opts)

	// Memory grant: the cost-model estimate, capped by the caller's
	// per-query ceiling and the free budget, floored at what the query
	// waited for so the spill accountant never starts from zero. It becomes
	// the query's enforcement ceiling: the engine builds its spill
	// accountant from opts.MemoryBudget.
	hold := reservation{threads: alloc.Total}
	if need.bytes > 0 {
		hold.bytes = est.Mem
		if opts.MemoryBudget > 0 {
			hold.bytes = min(hold.bytes, opts.MemoryBudget)
		}
		hold.bytes = max(min(hold.bytes, m.budget.bytes-m.inFlight.bytes), need.bytes)
		opts.MemoryBudget = hold.bytes
	}
	m.reserveLocked(pri, ticket, hold)
	m.admitted++
	m.active++
	return &Admission{
		m:     m,
		alloc: alloc,
		held:  hold,
		Stats: QueryStats{
			Utilization: opts.Utilization,
			Measured:    measured,
			Smoothed:    smoothed,
			Threads:     hold.threads,
			Available:   available,
			Priority:    pri,
			MemoryGrant: hold.bytes,
		},
	}, nil
}

// Run is one query between admission and Finish — the managed-execution
// protocol, written once for the streaming facade. Begin admits the query,
// takes ownership of its spill environment and wires the chain-boundary
// renegotiation; Execute runs it and settles every ledger.
type Run struct {
	adm   *Admission        // nil without a manager
	env   *storage.SpillEnv // nil without a memory budget
	plan  *lera.Plan
	db    core.DB
	opts  core.Options
	alloc core.Allocation
}

// Begin admits one query under m's budget, or — m nil, no manager installed
// — only plans its allocation. A begun Run holds its reservation until
// Execute returns, so every successful Begin must be followed by Execute.
//
// The Run owns the spill environment (rather than letting the engine create
// one) so that chain-boundary renegotiation can retarget the accountant and
// the spill totals land in the manager's ledgers. With memory admission on,
// Admit has by then rewritten opts.MemoryBudget to the granted bytes.
func Begin(ctx context.Context, m *Manager, plan *lera.Plan, db core.DB, opts core.Options, pri Priority) (*Run, error) {
	r := &Run{plan: plan, db: db}
	var err error
	if m != nil {
		if r.adm, err = m.Admit(ctx, plan, db, &opts, pri); err != nil {
			return nil, err
		}
		r.alloc = r.adm.Alloc()
	} else if r.alloc, err = core.PlanAllocation(plan, db, opts); err != nil {
		return nil, err
	}
	if opts.Spill == nil && opts.MemoryBudget > 0 {
		r.env, _ = storage.NewSpillEnv(opts.SpillDir, opts.MemoryBudget, 0, nil) // never fails
		opts.Spill = r.env
	}
	if adm, env := r.adm, r.env; adm != nil {
		// At each chain boundary the engine renegotiates the reservation:
		// surplus threads return to the shared budget between chains instead
		// of at Finish. The accountant follows the memory reservation only
		// when there is one — with memory admission off the query's own
		// MemoryBudget stays its grant (a grant of 0 would read as unlimited).
		opts.Readmit = func(chain, want, floor int) int {
			grant := m.Readmit(adm, chain, want, floor)
			if env != nil && adm.MemoryGrant() > 0 {
				env.Mem.SetGrant(adm.MemoryHeld())
			}
			return grant
		}
	}
	r.opts = opts
	return r, nil
}

// Granted reports what admission decided: the threads reserved and the
// processor utilization fed to the query's scheduler (the caller's, raised
// to the manager's measurement when one admitted it).
func (r *Run) Granted() (threads int, utilization float64) {
	return r.alloc.Total, r.opts.Utilization
}

// Execute runs the query to completion (or to ctx's cancellation), removes
// its spill files on every exit path, records what it spilled and hands the
// reservation back — threads are in the budget again before Execute returns.
// The QueryStats are the admission's, or just the allocation and spill
// totals of an unmanaged run.
func (r *Run) Execute(ctx context.Context) (*core.Result, QueryStats, error) {
	res, err := core.ExecuteAllocated(ctx, r.plan, r.db, r.opts, r.alloc)
	bytes, passes := r.env.Spilled()
	r.env.Close()
	if r.adm == nil {
		return res, QueryStats{Utilization: r.opts.Utilization, Threads: r.alloc.Total, SpilledBytes: bytes, SpillPasses: passes}, err
	}
	r.adm.NoteSpill(bytes, passes)
	r.adm.Finish(err)
	return res, r.adm.Stats, err
}
