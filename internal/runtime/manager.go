// Package runtime turns the single-shot execution engine into a concurrent
// query runtime. Its QueryManager owns a machine-wide thread budget shared by
// every concurrently executing query, admits queries through a bounded queue,
// and closes the paper's [Rahm93] feedback loop: the Utilization that step 1
// of the Figure 5 scheduler uses to shrink a query's degree of parallelism
// "to increase the multi-user throughput" is no longer a hand-set constant
// but is measured from the threads currently allocated to other queries at
// admission time, smoothed by an EWMA over recently completed queries so the
// signal stays informative between bursts.
//
// Admission is split into two halves so callers can stream results: Admit
// reserves the query's thread allocation against the budget and returns an
// Admission; the caller runs core.ExecuteAllocated at its leisure (possibly
// feeding a row cursor) and calls Admission.Finish when the execution ends —
// including when a client closes its cursor mid-result, which is how
// streaming queries hand threads back early. Execute remains the one-call
// convenience wrapper.
//
// Reservations are renegotiable mid-flight: at each chain boundary of a
// multi-chain query — the paper's materialization points — the engine calls
// Manager.Readmit with the next chain's desired thread count, and the
// manager returns the finished chain's surplus to the budget or grows the
// allocation into freed headroom, re-running the scheduler's utilization
// throttle with a fresh measurement. A long batch query thus stops pinning
// its admission-time thread count through chains that need fewer, and can
// expand into budget released by completed peers.
package runtime

import (
	"context"
	"errors"
	"math"
	"runtime"
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
// starved (see Config.BatchAging).
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
	// BatchAging bounds batch starvation: after this many consecutive
	// interactive admissions while a batch query waited, the batch head is
	// served next as soon as its threads fit the free budget; after twice
	// this many, it is served next unconditionally — blocking the line
	// until its threads accumulate. 0 defaults to 4.
	BatchAging int
	// MemoryBudget is the machine-wide working-memory budget in bytes shared
	// by all concurrent queries, reserved next to threads: at admission each
	// query is granted min(its cost-model memory estimate, its caller
	// ceiling, the free budget) and a query whose minimum grant does not fit
	// waits in its line instead of OOMing the process. 0 disables memory
	// admission — queries run with whatever per-query ceiling the caller
	// set, unmanaged.
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
// zero grant would read as "unlimited" to the spill accountant — so a query
// arriving while the budget is exhausted queues until at least this much
// frees up, rather than OOMing or running unbounded.
const minMemGrant = 1 << 20

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
	budget     int
	maxQueued  int
	batchAging int
	memBudget  int64 // working-memory budget in bytes; 0 = memory admission off

	mu   sync.Mutex
	cond *sync.Cond

	allocated    int   // threads reserved by in-flight queries
	memAllocated int64 // working-memory bytes reserved by in-flight queries
	queued       [priorityCount]int
	active       int
	closed       bool

	// Two FIFO ticket lines, one per priority class. headLocked picks the
	// single ticket allowed to admit next; admitting pins it so the choice
	// cannot flip while that ticket plans its allocation outside the lock.
	nextTicket  int64
	lines       [priorityCount][]waiter
	admitting   int64 // ticket currently mid-admission, -1 if none
	iStreak     int   // consecutive interactive admissions while batch waited
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
	peak            int
	peakMem         int64
}

// planAllocation is the out-of-lock allocation-planning step of Admit,
// swappable in tests to interpose exactly between a ticket passing its wait
// and the reservation (the cancel/Close-during-planning races).
var planAllocation = core.PlanAllocation

// NewManager creates a manager with the given configuration.
func NewManager(cfg Config) *Manager {
	if cfg.Budget <= 0 {
		cfg.Budget = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueued <= 0 {
		cfg.MaxQueued = 4 * cfg.Budget
	}
	if cfg.BatchAging <= 0 {
		cfg.BatchAging = 4
	}
	if cfg.MemoryBudget < 0 {
		cfg.MemoryBudget = 0
	}
	m := &Manager{budget: cfg.Budget, maxQueued: cfg.MaxQueued, batchAging: cfg.BatchAging, memBudget: cfg.MemoryBudget, admitting: -1}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// waiter is one queued admission: its line ticket plus the thread count and
// working-memory bytes it must see free before it can take its turn (used by
// awaitTurnLocked and headLocked's aging fit-check).
type waiter struct {
	ticket  int64
	need    int
	memNeed int64
}

// takeTicketLocked joins the FIFO line of the given class.
func (m *Manager) takeTicketLocked(pri Priority, need int, memNeed int64) int64 {
	t := m.nextTicket
	m.nextTicket++
	m.lines[pri] = append(m.lines[pri], waiter{ticket: t, need: need, memNeed: memNeed})
	return t
}

// memFitsLocked reports whether need bytes fit the free memory budget (true
// whenever memory admission is off).
func (m *Manager) memFitsLocked(need int64) bool {
	return m.memBudget <= 0 || m.memBudget-m.memAllocated >= need
}

// headLocked returns the ticket allowed to admit next. A ticket that already
// passed its wait and is planning its allocation outside the lock stays head
// until it reserves or leaves, so headroom measured at its admission point
// cannot be claimed by anyone else meanwhile.
func (m *Manager) headLocked() (int64, bool) {
	if m.admitting >= 0 {
		return m.admitting, true
	}
	iLine, bLine := m.lines[PriorityInteractive], m.lines[PriorityBatch]
	switch {
	case len(iLine) > 0 && len(bLine) > 0:
		// Aging is soft at first: the batch head is promoted once the
		// streak trips, but only when its threads actually fit the current
		// headroom — a batch query too big to run must not stall
		// interactive admissions that would fit. Past twice the aging
		// bound the promotion turns hard (head regardless of fit), so a
		// big batch query still gets the head-of-line blocking it needs to
		// ever accumulate its threads.
		if m.iStreak >= m.batchAging {
			if m.iStreak >= 2*m.batchAging || (m.budget-m.allocated >= bLine[0].need && m.memFitsLocked(bLine[0].memNeed)) {
				return bLine[0].ticket, true
			}
		}
		return iLine[0].ticket, true
	case len(iLine) > 0:
		return iLine[0].ticket, true
	case len(bLine) > 0:
		return bLine[0].ticket, true
	}
	return 0, false
}

// removeLocked takes a ticket out of its line. The aging streak only
// measures bypasses of the batch queries currently waiting: when the last
// one leaves (admitted or abandoned), the streak resets so a later batch
// arrival starts aging from zero instead of inheriting instant promotion.
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
}

// leaveLocked abandons a ticket (cancellation, close, planning error) and
// wakes the line so the next head can proceed.
func (m *Manager) leaveLocked(pri Priority, ticket int64) {
	m.removeLocked(pri, ticket)
	if m.admitting == ticket {
		m.admitting = -1
	}
	m.cond.Broadcast()
}

// awaitTurnLocked blocks until the ticket is the head of the line with need
// threads and memNeed working-memory bytes available, or the manager closes
// / ctx is cancelled. On success the ticket is pinned as the admitting
// ticket. The memory fit is what makes a query arriving into an exhausted
// memory budget queue instead of OOM: it waits here, like a query whose
// threads do not fit, until peers finish (or renegotiate down) and free
// enough bytes for its minimum grant.
func (m *Manager) awaitTurnLocked(ctx context.Context, pri Priority, ticket int64, need int, memNeed int64) error {
	for {
		if m.closed {
			m.leaveLocked(pri, ticket)
			return ErrClosed
		}
		if err := ctx.Err(); err != nil {
			m.leaveLocked(pri, ticket)
			return err
		}
		if head, ok := m.headLocked(); ok && head == ticket && m.budget-m.allocated >= need && m.memFitsLocked(memNeed) {
			m.admitting = ticket
			return nil
		}
		m.cond.Wait()
	}
}

// reserveLocked finalizes an admission: takes n threads and mem bytes out of
// the budgets, retires the ticket, and updates the cross-class aging streak.
func (m *Manager) reserveLocked(pri Priority, ticket int64, n int, mem int64) {
	m.allocated += n
	if m.allocated > m.peak {
		m.peak = m.allocated
	}
	m.memAllocated += mem
	if m.memAllocated > m.peakMem {
		m.peakMem = m.memAllocated
	}
	m.removeLocked(pri, ticket)
	m.admitting = -1
	if pri == PriorityBatch {
		m.iStreak = 0
	} else if len(m.lines[PriorityBatch]) > 0 {
		m.iStreak++
	} else {
		m.iStreak = 0
	}
	m.cond.Broadcast()
}

// Budget returns the machine-wide thread budget.
func (m *Manager) Budget() int { return m.budget }

// Utilization returns the current measured utilization: allocated threads
// over budget, in [0, 1].
func (m *Manager) Utilization() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return float64(m.allocated) / float64(m.budget)
}

// SmoothedUtilization returns the EWMA over recently completed queries'
// leftover utilization (0 until the first completion).
func (m *Manager) SmoothedUtilization() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ewma
}

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
	return Stats{
		Admitted:              m.admitted,
		Completed:             m.completed,
		Failed:                m.failed,
		Cancelled:             m.cancelled,
		Rejected:              m.rejected,
		Queued:                m.queued[PriorityInteractive] + m.queued[PriorityBatch],
		QueuedInteractive:     m.queued[PriorityInteractive],
		QueuedBatch:           m.queued[PriorityBatch],
		Active:                m.active,
		ThreadsInFlight:       m.allocated,
		PeakThreads:           m.peak,
		MemBudget:             m.memBudget,
		MemInFlight:           m.memAllocated,
		PeakMem:               m.peakMem,
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
		if blended := ewmaBlend*u + (1-ewmaBlend)*m.ewma; blended > u {
			u = blended
		}
	}
	return u
}

// Readmit renegotiates an in-flight admission's thread reservation at a
// chain boundary — the paper's materialization points, where a plan-based
// re-optimization is safe because no operator is mid-pipeline. want is the
// next chain's desired thread count (Allocation.ChainWant) and min its node
// count — the floor the chain actually runs with, since every node pool
// needs at least one thread. Readmit re-runs the Figure 5 step-1 throttle
// against utilization measured freshly from the threads other queries hold
// right now (blended, like the admission sample, with the completion EWMA
// so a momentary trough reads as busy), then:
//
//   - shrinks the reservation when the chain needs less than is held,
//     returning the surplus to the budget immediately (queued admissions
//     are woken), or
//   - grows it into free headroom when the chain wants more — never
//     blocking: the grant is capped at held + free, because a mid-flight
//     query that waited for threads while holding threads could deadlock
//     against the admission line.
//
// The granted total (>= 1) is returned; the engine redistributes the
// chain's node threads over it (core.Options.Readmit). When growth is
// unavailable (planning window, or free headroom below min) the grant can
// still land under min — the same nominal-ledger mismatch an admission
// into a squeezed budget has, never an overcommit. Releases do not feed
// the utilization EWMA — only Finish samples it, once per query. Calling
// Readmit on a finished admission is a harmless no-op.
func (m *Manager) Readmit(a *Admission, want, min int) int {
	return m.ReadmitAt(a, -1, want, min)
}

// ReadmitAt is Readmit with the chain boundary made explicit: chain is the
// index of the chain about to start, and alongside the thread renegotiation
// the query's working-memory reservation is shrunk to the peak estimate of
// the remaining chains (Allocation.ChainMem[chain:]), capped at the original
// grant. Memory renegotiation is shrink-only and never blocks — growth would
// reintroduce hold-and-wait against the admission line, and a chain that
// turns out to need more than the shrunk grant degrades by spilling, not by
// waiting. Returned bytes wake queued admissions immediately, so a long
// multi-chain query stops pinning its peak-chain memory through cheap tail
// chains. The estimate ledger is approximate (materialized intermediates
// from earlier chains are priced into the chain that wrote them); the spill
// accountant, retargeted to the shrunk grant by the caller, is the
// enforcement boundary. chain < 0 (or out of range) skips the memory step.
func (m *Manager) ReadmitAt(a *Admission, chain, want, min int) int {
	if min < 1 {
		min = 1
	}
	if min > m.budget {
		min = m.budget
	}
	if want < min {
		want = min
	}
	if a == nil || a.m != m {
		return want
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if a.finished {
		return a.held
	}
	// Fresh utilization from the other queries' threads: the same throttle
	// step 1 applied at admission, re-measured at the boundary.
	others := m.allocated - a.held
	if others < 0 {
		others = 0
	}
	u := m.blendLocked(float64(others) / float64(m.budget))
	grant := want
	if u > 0 && u < 1 {
		grant = int(math.Round(float64(want) * (1 - u)))
	}
	// The throttle never cuts below the chain's node count: a smaller
	// grant could not be honored (every pool runs >= 1 thread) and would
	// overstate the threads returned to the budget.
	if grant < min {
		grant = min
	}
	if grant > a.held {
		// Growth takes free budget — but never while an admission is
		// planning its allocation outside the lock: the pinned admitting
		// ticket measured the headroom it will reserve from, and growing
		// under it would overcommit the budget when it reserves. (A shrink
		// during the window is always safe — it only adds headroom beyond
		// what the ticket measured.) Declining growth keeps Readmit
		// non-blocking; the chain simply runs with what it holds.
		if m.admitting >= 0 {
			grant = a.held
		} else if free := m.budget - m.allocated; grant > a.held+free {
			grant = a.held + free
		}
	}
	switch {
	case grant < a.held:
		m.allocated -= a.held - grant
		m.threadsReturned += int64(a.held - grant)
		m.cond.Broadcast()
	case grant > a.held:
		m.allocated += grant - a.held
		m.threadsGrown += int64(grant - a.held)
		if m.allocated > m.peak {
			m.peak = m.allocated
		}
	}
	a.held = grant
	a.trace = append(a.trace, grant)
	m.readmissions++
	// Memory renegotiation: shrink the reservation to the peak estimate of
	// the chains still to run, floored so the accountant never retargets to
	// zero (zero reads as "unlimited") while the query holds a grant.
	if m.memBudget > 0 && a.memHeld > 0 && chain >= 0 && chain < len(a.alloc.ChainMem) {
		var remain int64
		for _, n := range a.alloc.ChainMem[chain:] {
			if n > remain {
				remain = n
			}
		}
		floor := a.memGrant
		if floor > minMemGrant {
			floor = minMemGrant
		}
		if remain < floor {
			remain = floor
		}
		if remain > a.memGrant {
			remain = a.memGrant
		}
		if remain < a.memHeld {
			m.memAllocated -= a.memHeld - remain
			m.memReturned += a.memHeld - remain
			a.memHeld = remain
			m.cond.Broadcast()
		}
	}
	return grant
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
	if n < 0 {
		n = 0
	}
	if n > m.budget {
		n = m.budget
	}
	stop := context.AfterFunc(ctx, func() {
		m.mu.Lock()
		m.cond.Broadcast()
		m.mu.Unlock()
	})
	defer stop()

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	if m.queued[PriorityInteractive]+m.queued[PriorityBatch] >= m.maxQueued {
		m.rejected++
		m.mu.Unlock()
		return nil, ErrQueueFull
	}
	m.queued[PriorityInteractive]++
	ticket := m.takeTicketLocked(PriorityInteractive, n, 0)
	err = m.awaitTurnLocked(ctx, PriorityInteractive, ticket, n, 0)
	m.queued[PriorityInteractive]--
	if err != nil {
		m.mu.Unlock()
		return nil, err
	}
	m.reserveLocked(PriorityInteractive, ticket, n, 0)
	m.mu.Unlock()

	var once sync.Once
	return func() {
		once.Do(func() {
			m.mu.Lock()
			m.allocated -= n
			m.cond.Broadcast()
			m.mu.Unlock()
		})
	}, nil
}

// Admission is one admitted query's reservation against the budget. The
// caller owns the reserved threads until Finish returns them; Stats and
// Alloc describe what the admission decided. Between chains of a
// multi-chain query the reservation is renegotiable: Manager.Readmit
// adjusts the held thread count at each materialization point.
type Admission struct {
	m     *Manager
	alloc core.Allocation
	// Stats is the per-query feedback record (effective utilization fed to
	// the scheduler, reserved threads, admission class). ChainThreads is
	// filled in at Finish; reading Stats while the query still executes
	// races with renegotiation.
	Stats QueryStats

	once sync.Once

	// held is the thread count currently reserved (starts at alloc.Total,
	// renegotiated by Readmit); trace records each renegotiated grant;
	// finished blocks late Readmit calls. memGrant is the working-memory
	// bytes granted at admission (immutable); memHeld is the bytes
	// currently reserved (shrunk by ReadmitAt). All but memGrant guarded
	// by m.mu.
	held     int
	memGrant int64
	memHeld  int64
	finished bool
	trace    []int
}

// Alloc is the thread allocation reserved for the query; pass it to
// core.ExecuteAllocated together with the Options Admit adjusted.
func (a *Admission) Alloc() core.Allocation { return a.alloc }

// ChainTrace returns the per-chain thread grants renegotiated so far (one
// entry per Manager.Readmit call, in chain order).
func (a *Admission) ChainTrace() []int {
	a.m.mu.Lock()
	defer a.m.mu.Unlock()
	return append([]int(nil), a.trace...)
}

// MemoryGrant returns the working-memory bytes granted at admission (0 when
// memory admission is off or the plan estimates no blocking-operator state).
// This is the grant a query's spill accountant starts from.
func (a *Admission) MemoryGrant() int64 { return a.memGrant }

// MemoryHeld returns the working-memory bytes currently reserved — the
// admission grant, minus what chain-boundary renegotiations handed back.
func (a *Admission) MemoryHeld() int64 {
	a.m.mu.Lock()
	defer a.m.mu.Unlock()
	return a.memHeld
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
		a.finished = true
		a.Stats.ChainThreads = append([]int(nil), a.trace...)
		m.allocated -= a.held
		m.memAllocated -= a.memHeld
		a.memHeld = 0
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
		sample := float64(m.allocated) / float64(m.budget)
		if m.ewmaSet {
			m.ewma = ewmaAlpha*sample + (1-ewmaAlpha)*m.ewma
		} else {
			m.ewma = sample
			m.ewmaSet = true
		}
		m.cond.Broadcast()
		m.mu.Unlock()
	})
}

// Admit reserves one query's thread allocation against the shared budget.
//
// The query waits in its class line (bounded by MaxQueued across classes)
// until the budget has headroom — one thread for auto-threaded queries, the
// full explicit opts.Threads otherwise (clamped to the budget). On admission
// the manager measures utilization from the threads other queries hold,
// blends it with the completion EWMA, caps the query's usable processors at
// the remaining headroom, runs the Figure 5 scheduler, and reserves the
// chosen thread count before returning — so the sum of reserved threads
// never exceeds the budget. opts is adjusted in place (Utilization,
// Processors) and must be the Options later passed to ExecuteAllocated.
//
// The caller must call Finish on the returned Admission exactly when the
// execution ends — normal completion, failure, or a streaming client closing
// its cursor mid-result — to hand the threads back.
func (m *Manager) Admit(ctx context.Context, plan *lera.Plan, db core.DB, opts *core.Options, pri Priority) (*Admission, error) {
	if pri < 0 || pri >= priorityCount {
		pri = PriorityInteractive
	}
	if opts.Threads > m.budget {
		opts.Threads = m.budget
	}
	need := 1
	if opts.Threads > 0 {
		need = opts.Threads
	}
	// With memory admission on, every query waits for at least the minimum
	// grant — its true estimate is not known until the plan is costed, which
	// happens after the wait. The pinned admitting ticket keeps the free
	// memory measured here stable through planning, so the post-planning
	// grant never overcommits the budget.
	var memNeed int64
	if m.memBudget > 0 {
		memNeed = minMemGrant
		if memNeed > m.memBudget {
			memNeed = m.memBudget
		}
	}

	stop := context.AfterFunc(ctx, func() {
		m.mu.Lock()
		m.cond.Broadcast()
		m.mu.Unlock()
	})
	defer stop()

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	// Batch admissions stop short of the full queue bound so a batch flood
	// cannot shed the latency-sensitive class — the reserved slots are
	// usable by interactive arrivals only.
	limit := m.maxQueued
	if pri == PriorityBatch {
		limit -= m.maxQueued / 4
	}
	if m.queued[PriorityInteractive]+m.queued[PriorityBatch] >= limit {
		m.rejected++
		m.mu.Unlock()
		return nil, ErrQueueFull
	}
	m.queued[pri]++
	ticket := m.takeTicketLocked(pri, need, memNeed)
	if err := m.awaitTurnLocked(ctx, pri, ticket, need, memNeed); err != nil {
		m.queued[pri]--
		if err != ErrClosed {
			m.cancelled++
		}
		m.mu.Unlock()
		return nil, err
	}

	// Admission point: measure concurrent load and feed it to the
	// scheduler. Cost estimation runs outside the lock — the pinned
	// admitting ticket guarantees no other query can reserve threads
	// meanwhile (completions only grow the headroom), so the allocation
	// stays within budget.
	available := m.budget - m.allocated
	measured := float64(m.allocated) / float64(m.budget)
	smoothed := m.blendLocked(measured)
	m.mu.Unlock()
	if smoothed > opts.Utilization {
		opts.Utilization = smoothed
	}
	if opts.Processors <= 0 || opts.Processors > available {
		opts.Processors = available
	}
	// Processors is squeezed to the instantaneous headroom so the initial
	// allocation fits; Machine keeps the whole budget in view so a
	// chain-boundary renegotiation can grow into budget freed later.
	opts.Machine = m.budget
	alloc, planErr := planAllocation(plan, db, *opts)
	m.mu.Lock()
	m.queued[pri]--
	if planErr != nil {
		m.failed++
		m.leaveLocked(pri, ticket)
		m.mu.Unlock()
		return nil, planErr
	}
	// Allocation planning ran outside the lock: the query may have died —
	// or the manager closed — meanwhile. Reserving anyway would launch an
	// execution that instantly aborts while its threads sit out the abort
	// in the budget; re-check before committing.
	if m.closed {
		m.leaveLocked(pri, ticket)
		m.mu.Unlock()
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		m.cancelled++
		m.leaveLocked(pri, ticket)
		m.mu.Unlock()
		return nil, err
	}
	// Memory grant: the cost-model estimate, capped by the caller's
	// per-query ceiling and the free budget, floored (when the query needs
	// any memory at all) so the spill accountant never starts from zero.
	// The wait guaranteed minMemGrant free, and nothing could take memory
	// during planning (the pinned ticket blocks reservations; renegotiation
	// only shrinks), so the grant always fits the budget.
	var memGrant int64
	if m.memBudget > 0 && alloc.MemEstimate > 0 {
		memGrant = alloc.MemEstimate
		if opts.MemoryBudget > 0 && memGrant > opts.MemoryBudget {
			memGrant = opts.MemoryBudget
		}
		if free := m.memBudget - m.memAllocated; memGrant > free {
			memGrant = free
		}
		if memGrant < memNeed {
			memGrant = memNeed
		}
		// The grant becomes the query's enforcement ceiling: the engine
		// builds its spill accountant from opts.MemoryBudget.
		opts.MemoryBudget = memGrant
	}
	m.reserveLocked(pri, ticket, alloc.Total, memGrant)
	m.admitted++
	m.active++
	m.mu.Unlock()

	return &Admission{
		m:        m,
		alloc:    alloc,
		held:     alloc.Total,
		memGrant: memGrant,
		memHeld:  memGrant,
		Stats: QueryStats{
			Utilization: opts.Utilization,
			Measured:    measured,
			Smoothed:    smoothed,
			Threads:     alloc.Total,
			Available:   available,
			Priority:    pri,
			MemoryGrant: memGrant,
		},
	}, nil
}

// Run is one query between admission and Finish — the managed-execution
// protocol, written once for the streaming facade and Manager.Execute. Begin
// admits the query, takes ownership of its spill environment and wires the
// chain-boundary renegotiation; Execute runs it and settles every ledger.
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
// one) so that chain-boundary renegotiation can retarget the accountant, the
// spill totals land in the manager's ledgers, and pool, when non-nil, sees
// the read-back traffic. With memory admission on, Admit has by then
// rewritten opts.MemoryBudget to the granted bytes.
func Begin(ctx context.Context, m *Manager, plan *lera.Plan, db core.DB, opts core.Options, pri Priority, pool *storage.PoolMetrics) (*Run, error) {
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
		r.env, err = storage.NewSpillEnv(opts.SpillDir, opts.MemoryBudget, storage.PoolPagesFor(opts.MemoryBudget), pool)
		if err != nil {
			if r.adm != nil {
				r.adm.Finish(err)
			}
			return nil, err
		}
		opts.Spill = r.env
	}
	if adm, env := r.adm, r.env; adm != nil {
		// At each chain boundary the engine renegotiates the reservation:
		// surplus threads return to the shared budget between chains instead
		// of at Finish. The accountant follows the memory reservation only
		// when there is one — with memory admission off the query's own
		// MemoryBudget stays its grant (a grant of 0 would read as unlimited).
		opts.Readmit = func(chain, want, min int) int {
			grant := m.ReadmitAt(adm, chain, want, min)
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

// Execute admits one query as PriorityInteractive and runs it under the
// shared budget, for callers that do not stream results. Multi-chain queries
// renegotiate their reservation at each materialization point (Readmit);
// the per-chain grants come back in QueryStats.ChainThreads.
func (m *Manager) Execute(ctx context.Context, plan *lera.Plan, db core.DB, opts core.Options) (*core.Result, QueryStats, error) {
	r, err := Begin(ctx, m, plan, db, opts, PriorityInteractive, nil)
	if err != nil {
		return nil, QueryStats{}, err
	}
	return r.Execute(ctx)
}
