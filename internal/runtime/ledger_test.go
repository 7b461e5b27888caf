package runtime

// One model-checked ledger. A seeded driver makes one move at a time —
// admit (auto or explicit threads, with or without a memory need, either
// class), a plan that cannot be costed, Reserve, Readmit (grow, shrink,
// memory shrink), Finish (nil / cancel / error), release, cancel-while-
// queued, and finally Close — each blocking call in its own goroutine, and
// after every move waits for the manager to settle and compares it with a
// sequential model that only adds and subtracts what the calls reported.
// Because the driver knows the enqueue order, it can also check that no
// ticket overtook an earlier one of its class; because settling means "the
// head of the line does not fit", a lost wakeup is a timeout, not a pass.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"dbs3/internal/core"
	"dbs3/internal/lera"
)

const (
	// ledgerPools is the fewest threads twoChainPlan runs: its join chain
	// has a transmit pool and a join pool.
	ledgerPools     = 2
	ledgerBudget    = 6
	ledgerMemBudget = 8 << 20
	ledgerMaxQueued = 5
	ledgerSteps     = 300
)

// ledgerOp is one Admit or Reserve call, running in its own goroutine.
type ledgerOp struct {
	seq      int // launch order = enqueue order (the driver settles between launches)
	pri      Priority
	reserve  bool // a Reserve call, not an admit
	cancel   context.CancelFunc
	done     chan struct{}
	opts     core.Options
	mem      int64   // fabricated estimate (admits only)
	chainMem []int64 // its per-chain split

	// Results, valid once done is closed.
	adm     *Admission
	release func()
	err     error

	// The model's view of what the call holds.
	threads int
	bytes   int64
}

type ledgerDriver struct {
	t    *testing.T
	m    *Manager
	rng  *rand.Rand
	est  core.Estimate
	plan *lera.Plan
	step int

	nextSeq int
	pending []*ledgerOp // launched, not yet returned: must all be queued when settled
	live    []*ledgerOp // returned holding a reservation

	lastAdmitted [priorityCount]int // highest seq that left each class's line with a reservation

	completed, failedExec, cancelledExec, planFailed, queuedCancelled, rejected int64
	readmissions, threadsReturned, threadsGrown, memReturned                    int64
	peak                                                                        reservation
}

func TestLedgerModel(t *testing.T) {
	plan, db := twoChainPlan(t)
	est, err := core.EstimatePlan(plan, db, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			d := &ledgerDriver{
				t:            t,
				m:            NewManager(Config{Budget: ledgerBudget, MaxQueued: ledgerMaxQueued, MemoryBudget: ledgerMemBudget}),
				rng:          rand.New(rand.NewSource(seed)),
				est:          est,
				plan:         plan,
				lastAdmitted: [priorityCount]int{-1, -1},
			}
			for d.step = 0; d.step < ledgerSteps; d.step++ {
				d.move()
				d.settle()
				d.check()
			}
			d.drain()
		})
	}
}

func (d *ledgerDriver) fatalf(format string, args ...any) {
	d.t.Helper()
	d.t.Fatalf("step %d: %s\nstats: %+v", d.step, fmt.Sprintf(format, args...), d.m.Stats())
}

// move makes one random move.
func (d *ledgerDriver) move() {
	admissions := d.liveWhere(func(op *ledgerOp) bool { return op.adm != nil })
	reserves := d.liveWhere(func(op *ledgerOp) bool { return op.release != nil })
	switch r := d.rng.Intn(100); {
	case r < 35:
		d.launchAdmit()
	case r < 40:
		if _, err := d.m.Admit(context.Background(), d.plan, core.DB{}, &core.Options{}, Priority(d.rng.Intn(2))); err == nil {
			d.fatalf("plan against an empty database admitted")
		}
		d.planFailed++
	case r < 50:
		d.launchReserve()
	case r < 65 && len(admissions) > 0:
		d.readmit(admissions[d.rng.Intn(len(admissions))])
	case r < 85 && len(admissions) > 0:
		d.finish(admissions[d.rng.Intn(len(admissions))])
	case r < 93 && len(reserves) > 0:
		op := reserves[d.rng.Intn(len(reserves))]
		op.release()
		op.release() // idempotent
		d.drop(op)
	case len(d.pending) > 0:
		// Cancel a queued call and wait it out. The line was settled, so
		// nothing could have admitted it meanwhile.
		op := d.pending[d.rng.Intn(len(d.pending))]
		op.cancel()
		<-op.done
		if !errors.Is(op.err, context.Canceled) {
			d.fatalf("cancelled queued op %d returned %v", op.seq, op.err)
		}
		if !op.reserve { // Stats.Cancelled counts queries
			d.queuedCancelled++
		}
		d.pending = slices.DeleteFunc(d.pending, func(o *ledgerOp) bool { return o == op })
	}
}

func (d *ledgerDriver) liveWhere(keep func(*ledgerOp) bool) []*ledgerOp {
	var out []*ledgerOp
	for _, op := range d.live {
		if keep(op) {
			out = append(out, op)
		}
	}
	return out
}

func (d *ledgerDriver) drop(op *ledgerOp) {
	d.live = slices.DeleteFunc(d.live, func(o *ledgerOp) bool { return o == op })
}

func (d *ledgerDriver) launch(pri Priority) (*ledgerOp, context.Context) {
	ctx, cancel := context.WithCancel(context.Background())
	op := &ledgerOp{seq: d.nextSeq, pri: pri, cancel: cancel, done: make(chan struct{})}
	d.nextSeq++
	d.pending = append(d.pending, op)
	return op, ctx
}

func (d *ledgerDriver) launchAdmit() {
	op, ctx := d.launch(Priority(d.rng.Intn(2)))
	if d.rng.Intn(2) == 0 {
		op.opts.Threads = 1 + d.rng.Intn(ledgerBudget+1) // may exceed the budget: clamped
	}
	op.mem = []int64{0, 0, 512 << 10, 3 << 20, 20 << 20}[d.rng.Intn(5)]
	if op.mem > 0 {
		op.chainMem = []int64{op.mem, op.mem / 4}
		if d.rng.Intn(3) == 0 {
			op.opts.MemoryBudget = 2 << 20 // caller ceiling
		}
	}
	est := d.est
	est.Mem, est.ChainMem = op.mem, op.chainMem
	ceiling := op.opts.MemoryBudget
	go func() {
		defer close(op.done)
		op.adm, op.err = d.m.admit(ctx, est, &op.opts, op.pri)
		if op.err != nil {
			return
		}
		op.threads, op.bytes = op.adm.Alloc().Total, op.adm.Decision.MemoryGrant
		op.err = op.grantError(ceiling)
	}()
}

// grantError checks what one admission may be granted whatever the load was.
func (op *ledgerOp) grantError(ceiling int64) error {
	floor := min(int64(minMemGrant), ledgerMemBudget)
	switch {
	case op.threads < ledgerPools:
		return fmt.Errorf("admitted with %d threads, under one per pool", op.threads)
	case op.opts.Threads > 0 && op.threads != max(op.opts.Threads, ledgerPools):
		return fmt.Errorf("explicit %d threads, granted %d", op.opts.Threads, op.threads)
	case op.mem == 0 && op.bytes != 0:
		return fmt.Errorf("granted %d bytes for a zero estimate", op.bytes)
	case op.mem == 0:
		return nil
	case op.bytes < floor || op.bytes > max(op.mem, floor):
		return fmt.Errorf("grant %d outside [%d, %d]", op.bytes, floor, max(op.mem, floor))
	case ceiling > 0 && op.bytes > max(ceiling, floor):
		return fmt.Errorf("grant %d above ceiling %d", op.bytes, ceiling)
	case op.opts.MemoryBudget != op.bytes:
		return fmt.Errorf("opts.MemoryBudget = %d, grant %d", op.opts.MemoryBudget, op.bytes)
	}
	return nil
}

func (d *ledgerDriver) launchReserve() {
	op, ctx := d.launch(PriorityInteractive)
	op.reserve = true
	n := d.rng.Intn(ledgerBudget + 2)
	go func() {
		defer close(op.done)
		op.release, op.err = d.m.Reserve(ctx, n)
		op.threads = min(n, ledgerBudget)
	}()
}

func (d *ledgerDriver) readmit(op *ledgerOp) {
	inFlight := 0
	for _, o := range d.live {
		inFlight += o.threads
	}
	chain := d.rng.Intn(4) - 1 // -1 and 2 are out of range: memory step skipped
	want, floor := 1+d.rng.Intn(ledgerBudget+2), d.rng.Intn(4)
	grant := d.m.Readmit(op.adm, chain, want, floor)

	reach := op.threads + ledgerBudget - inFlight // held + free
	lo := min(max(floor, 1), reach)
	if grant < lo || grant > max(reach, op.threads) || grant > max(want, lo, floor) {
		d.fatalf("Readmit(chain %d, want %d, floor %d) on %d held with %d reachable granted %d", chain, want, floor, op.threads, reach, grant)
	}
	bytes := op.bytes
	if bytes > 0 && chain >= 0 && chain < len(op.chainMem) {
		bytes = min(bytes, max(slices.Max(op.chainMem[chain:]), min(op.adm.Decision.MemoryGrant, minMemGrant)))
	}
	if held := op.adm.MemoryHeld(); held != bytes {
		d.fatalf("Readmit(chain %d) left %d bytes held, model says %d", chain, held, bytes)
	}
	d.readmissions++
	d.threadsGrown += int64(max(grant-op.threads, 0))
	d.threadsReturned += int64(max(op.threads-grant, 0))
	d.memReturned += op.bytes - bytes
	op.threads, op.bytes = grant, bytes
}

func (d *ledgerDriver) finish(op *ledgerOp) {
	switch d.rng.Intn(3) {
	case 0:
		op.adm.Finish(nil)
		d.completed++
	case 1:
		op.adm.Finish(fmt.Errorf("chain 1: %w", context.Canceled))
		d.cancelledExec++
	default:
		op.adm.Finish(errors.New("operator failed"))
		d.failedExec++
	}
	op.adm.Finish(nil) // idempotent: must not count twice
	if got := d.m.Readmit(op.adm, 0, ledgerBudget, 1); got != ledgerBudget {
		d.fatalf("Readmit after Finish returned %d, want the request back", got)
	}
	d.drop(op)
}

// settle waits until every call the driver launched has either returned or
// sits in the line, and the head of the line (if any) does not fit — the
// state in which only another move can change anything. Not getting there is
// a lost wakeup (or a hang), and fails the test.
func (d *ledgerDriver) settle() {
	deadline := time.Now().Add(5 * time.Second)
	for spins := 0; ; spins++ {
		d.pending = slices.DeleteFunc(d.pending, func(op *ledgerOp) bool {
			select {
			case <-op.done:
				d.returned(op)
				return true
			default:
				return false
			}
		})
		m := d.m
		m.mu.Lock()
		queued := len(m.lines[PriorityInteractive]) + len(m.lines[PriorityBatch])
		stuck := true
		head := m.headLocked()
		for _, line := range m.lines {
			for _, w := range line {
				if w.ticket == head && m.fitsLocked(w.need) {
					stuck = false
				}
			}
		}
		m.mu.Unlock()
		if queued == len(d.pending) && stuck {
			return
		}
		if time.Now().After(deadline) {
			d.fatalf("manager did not settle: %d calls outstanding, %d queued, head fits = %v", len(d.pending), queued, !stuck)
		}
		if spins < 100 {
			runtime.Gosched()
		} else {
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// returned books a finished Admit or Reserve call.
func (d *ledgerDriver) returned(op *ledgerOp) {
	switch {
	case op.err == nil:
		d.live = append(d.live, op)
		d.lastAdmitted[op.pri] = max(d.lastAdmitted[op.pri], op.seq)
	case errors.Is(op.err, ErrQueueFull):
		d.rejected++
	default:
		d.fatalf("op %d: %v", op.seq, op.err)
	}
}

// check compares the settled manager with the model.
func (d *ledgerDriver) check() {
	var sum reservation
	active := 0
	for _, op := range d.live {
		sum.threads += op.threads
		sum.bytes += op.bytes
		if op.adm != nil {
			active++
		}
	}
	d.peak.threads, d.peak.bytes = max(d.peak.threads, sum.threads), max(d.peak.bytes, sum.bytes)
	var queued [priorityCount]int
	for _, op := range d.pending {
		queued[op.pri]++
		// FIFO within a class: nothing that enqueued later has been served.
		if op.seq < d.lastAdmitted[op.pri] {
			d.fatalf("%v op %d still queued after op %d of its class was admitted", op.pri, op.seq, d.lastAdmitted[op.pri])
		}
	}

	st := d.m.Stats()
	want := Stats{
		Admitted:              d.completed + d.failedExec + d.cancelledExec + int64(active),
		Completed:             d.completed,
		Failed:                d.failedExec + d.planFailed,
		Cancelled:             d.cancelledExec + d.queuedCancelled,
		Rejected:              d.rejected,
		Queued:                len(d.pending),
		QueuedInteractive:     queued[PriorityInteractive],
		QueuedBatch:           queued[PriorityBatch],
		Active:                active,
		ThreadsInFlight:       sum.threads,
		PeakThreads:           d.peak.threads,
		MemBudget:             ledgerMemBudget,
		MemInFlight:           sum.bytes,
		PeakMem:               d.peak.bytes,
		MemReturnedEarly:      d.memReturned,
		Readmissions:          d.readmissions,
		ThreadsReturnedEarly:  d.threadsReturned,
		ThreadsGrownMidFlight: d.threadsGrown,
		SmoothedUtilization:   st.SmoothedUtilization, // not modelled
	}
	if st != want {
		d.fatalf("ledger diverged from the model\nmodel: %+v", want)
	}
	if st.ThreadsInFlight < 0 || st.ThreadsInFlight > ledgerBudget || st.MemInFlight < 0 || st.MemInFlight > ledgerMemBudget {
		d.fatalf("in-flight totals outside the budget")
	}
}

// drain closes the manager with calls still queued, then returns every
// reservation: both ledgers must come back to zero with an empty line.
func (d *ledgerDriver) drain() {
	d.m.Close()
	for _, op := range d.pending {
		<-op.done
		if !errors.Is(op.err, ErrClosed) {
			d.fatalf("queued op %d returned %v on Close", op.seq, op.err)
		}
	}
	d.pending = nil
	if _, err := d.m.Reserve(context.Background(), 1); !errors.Is(err, ErrClosed) {
		d.fatalf("Reserve after Close: %v", err)
	}
	for _, op := range slices.Clone(d.live) {
		if op.adm != nil {
			d.finish(op)
		} else {
			op.release()
			d.drop(op)
		}
	}
	d.check()
	if st := d.m.Stats(); st.ThreadsInFlight != 0 || st.MemInFlight != 0 || st.Queued != 0 || st.Active != 0 {
		d.fatalf("not drained")
	}
}
