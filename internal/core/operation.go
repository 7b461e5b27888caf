package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dbs3/internal/operator"
	"dbs3/internal/partition"
	"dbs3/internal/relation"
)

// OpStats counts scheduling events of one operation; all fields are updated
// atomically during execution.
type OpStats struct {
	// Activations is the number of activations processed.
	Activations atomic.Int64
	// Batches is the number of queue drains; Activations/Batches is the
	// internal-cache effectiveness.
	Batches atomic.Int64
	// Emitted is the number of tuples sent downstream, or stored or pushed.
	Emitted atomic.Int64
	// SecondaryPicks counts consumptions from non-main queues — the load
	// redistribution the shared queues exist for. Zero under perfect
	// balance; grows when threads run dry on their own queues.
	SecondaryPicks atomic.Int64
	// Setups is the number of instance setups executed.
	Setups atomic.Int64
	// SpilledBytes and SpillPasses count this node's larger-than-memory
	// activity: bytes written to spill files and partitioning/run-writing
	// sweeps. Zero for operators that stayed within the memory grant.
	SpilledBytes atomic.Int64
	SpillPasses  atomic.Int64
	// perWorker[w] counts activations processed by pool thread w; the
	// spread across workers is the operation's load balance, the quantity
	// the whole execution model optimizes.
	perWorker []atomic.Int64
}

// WorkerActivations returns per-thread activation counts. Call only after
// execution completes.
func (s *OpStats) WorkerActivations() []int64 {
	out := make([]int64, len(s.perWorker))
	for i := range s.perWorker {
		out[i] = s.perWorker[i].Load()
	}
	return out
}

// BalanceRatio returns max/mean of per-worker activation counts: 1.0 is a
// perfect balance; large values mean some threads did most of the work.
func (s *OpStats) BalanceRatio() float64 {
	counts := s.WorkerActivations()
	if len(counts) == 0 {
		return 1
	}
	var sum, max int64
	for _, c := range counts {
		sum += c
		if c > max {
			max = c
		}
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(counts))
	return float64(max) / mean
}

// routeTarget is one downstream consumer of an operation's output, of degree
// instances: a pooled operation (op) or a terminal (term). same marks
// instance-aligned (RouteSame) targets: every tuple goes to the emitting
// instance's own. Otherwise the edge is hash-partitioned: the consumer's
// router places each tuple of a run by its key at cols.
type routeTarget struct {
	op     *Operation
	term   *terminal
	degree int
	same   bool
	router partition.Func
	cols   []int
}

// terminal is a store or sink run by the workers feeding it, with no queues
// and no pool: materialization costs the threads that produce the tuples, as
// in the paper's cost model, and a store's producers meet only on an
// instance's Context.Mu. Its OpStats count no activations or setups; Emitted
// counts the tuples stored or pushed.
type terminal struct {
	op    operator.Operator // *operator.Store or *operator.Sink
	ctxs  []*operator.Context
	stats *OpStats
}

// newTerminal runs op's Setup on every instance up front: a terminal has no
// pool to run it on an instance's first activation.
func newTerminal(op operator.Operator, ctxs []*operator.Context) (*terminal, error) {
	for _, ctx := range ctxs {
		if err := op.Setup(ctx); err != nil {
			return nil, err
		}
	}
	return &terminal{op: op, ctxs: ctxs, stats: &OpStats{}}, nil
}

// deliver stores or pushes one run bound for instance inst (a store's append
// and spill charge under that instance's lock; a sink's Push). An error fails
// the emitting operation.
func (t *terminal) deliver(inst int, ts []relation.Tuple, fail func(error)) {
	if err := t.op.OnBatch(t.ctxs[inst], ts, nil); err != nil {
		fail(err)
		return
	}
	t.stats.Emitted.Add(int64(len(ts)))
}

// workerEmit is one worker's reusable emission closure: the operator-facing
// Emit callback plus the state it needs (current queue index, tuples emitted
// since last publish). Allocated once per worker instead of one closure per
// processed batch or instance close — the per-use cost is two field writes,
// not two heap allocations.
type workerEmit struct {
	em      *routeEmitter
	qi      int
	emitted int64
	// run gathers emitted tuples so the routing layer sees whole runs
	// (emitRun hoists the per-target and per-destination bookkeeping out of
	// the per-tuple path). Flushed when full, at the end of every processed
	// activation batch and after every instance close — the worker-loop
	// flush contract above.
	run []relation.Tuple
	fn  operator.Emit
}

func newWorkerEmit(em *routeEmitter, cap int) *workerEmit {
	if cap < 1 {
		cap = 1
	}
	w := &workerEmit{em: em, run: make([]relation.Tuple, 0, cap)}
	w.fn = w.emit
	return w
}

func (w *workerEmit) emit(t relation.Tuple) {
	w.emitted++
	w.run = append(w.run, t)
	if len(w.run) == cap(w.run) {
		w.flushRun()
	}
}

// flushRun delivers the gathered run to the routing layer. Must run before
// the emitter's flush at every batch boundary.
func (w *workerEmit) flushRun() {
	if len(w.run) > 0 {
		w.em.emitRun(w.qi, w.run)
		w.run = w.run[:0]
	}
}

// routeEmitter is one worker's batch-at-a-time routing state: a small buffer
// per destination, handed on (one PushBatch into a queue: one lock, one wake;
// or one deliver) when it reaches the batch grain — and by flush at the
// activation-batch boundaries, so buffered tuples are always downstream
// before an operation can report completion (and close its consumers'
// queues). An instance-aligned terminal takes each run unbuffered. Buffers
// are worker-private, so emission needs no extra synchronization; they are
// allocated lazily (first tuple to a destination) and reused across flushes.
type routeEmitter struct {
	targets []routeTarget
	grain   int
	fail    func(error)
	bufs    [][][]Activation // [target][destination] -> pending tuples
	dsts    []int32          // router scratch: destinations for one run
	tup     []relation.Tuple // terminal scratch: a buffer's tuples
}

func newRouteEmitter(o *Operation) *routeEmitter {
	e := &routeEmitter{targets: o.targets, grain: max(o.batchGrain, 1), fail: o.fail, bufs: make([][][]Activation, len(o.targets))}
	for i, tg := range e.targets {
		e.bufs[i] = make([][]Activation, tg.degree)
	}
	return e
}

// emitRun routes a whole run of tuples emitted by one instance: the
// per-target loop, buffer lookups and the routing decisions are amortized
// over the run instead of paid per tuple.
func (e *routeEmitter) emitRun(inst int, ts []relation.Tuple) {
	for ti := range e.targets {
		tg := &e.targets[ti]
		bufs := e.bufs[ti]
		switch {
		case tg.same && tg.term != nil:
			tg.term.deliver(inst, ts, e.fail)
		case tg.same:
			// One destination for the whole run.
			buf := bufs[inst]
			if buf == nil {
				buf = make([]Activation, 0, e.grain)
			}
			for _, t := range ts {
				buf = append(buf, Activation{Tuple: t})
				if len(buf) >= e.grain {
					e.push(tg, inst, buf)
					buf = buf[:0]
				}
			}
			bufs[inst] = buf
		default:
			// Hash routing: all destinations computed in one call.
			e.dsts = tg.router.FragmentsOfCols(ts, tg.cols, e.dsts[:0])
			for k, t := range ts {
				dst := int(e.dsts[k])
				buf := bufs[dst]
				if buf == nil {
					buf = make([]Activation, 0, e.grain)
				}
				buf = append(buf, Activation{Tuple: t})
				if len(buf) >= e.grain {
					e.push(tg, dst, buf)
					buf = buf[:0]
				}
				bufs[dst] = buf
			}
		}
	}
}

// push hands one destination's buffer to its consumer.
func (e *routeEmitter) push(tg *routeTarget, dst int, buf []Activation) {
	if tg.term == nil {
		tg.op.Queues[dst].PushBatch(buf)
		return
	}
	e.tup = e.tup[:0]
	for _, a := range buf {
		e.tup = append(e.tup, a.Tuple)
	}
	tg.term.deliver(dst, e.tup, e.fail)
}

func (e *routeEmitter) flush() {
	for ti := range e.targets {
		for dst, buf := range e.bufs[ti] {
			if len(buf) > 0 {
				e.push(&e.targets[ti], dst, buf)
				e.bufs[ti][dst] = buf[:0]
			}
		}
	}
}

// Operation is the runtime form of one Lera-par node: QueueNb activation
// queues (one per instance), a pool of ThreadNb worker goroutines that all
// see all queues, an internal activation cache of CacheSize, and a
// consumption strategy (paper Figure 4's operation structure).
type Operation struct {
	Name      string
	NodeID    int
	Queues    []*Queue
	Workers   int
	CacheSize int
	Strat     StrategyKind

	op   operator.Operator
	ctxs []*operator.Context
	// noVectorize (Options.NoVectorize) cuts the runs of pipelined tuples
	// handed to OnBatch down to one tuple each.
	noVectorize bool
	setups      []instanceSetup
	seed        int64
	stats       *OpStats
	triggered   bool

	// targets and batchGrain configure the batch-at-a-time routing layer:
	// each worker buffers emitted tuples per destination queue and delivers
	// them with one PushBatch per batchGrain tuples. Set by the engine
	// (runChain) before the pools start.
	targets    []routeTarget
	batchGrain int

	mu         sync.Mutex
	cond       *sync.Cond
	inflight   []int
	closeBegun []bool
	doneCount  int
	completed  bool
	aborted    bool
	onComplete func()
	// abortFlag mirrors aborted for cheap lock-free polling before every
	// run dispatch hands to OnBatch: cancellation latency is bounded by one
	// run's work — at most CacheSize pipelined tuples, or triggerRun tuples
	// of a trigger's operand — not a whole batch or fragment.
	abortFlag atomic.Bool

	firstErr error
}

// newOperation builds an operation over its instance contexts.
func newOperation(name string, nodeID int, op operator.Operator, ctxs []*operator.Context, queueCap, workers, cacheSize int, strat StrategyKind, seed int64, triggered bool) *Operation {
	if workers < 1 {
		workers = 1
	}
	if cacheSize < 1 {
		cacheSize = 1
	}
	o := &Operation{
		Name:       name,
		NodeID:     nodeID,
		Queues:     make([]*Queue, len(ctxs)),
		Workers:    workers,
		CacheSize:  cacheSize,
		Strat:      strat,
		op:         op,
		ctxs:       ctxs,
		setups:     make([]instanceSetup, len(ctxs)),
		seed:       seed,
		stats:      &OpStats{perWorker: make([]atomic.Int64, workers)},
		triggered:  triggered,
		inflight:   make([]int, len(ctxs)),
		closeBegun: make([]bool, len(ctxs)),
	}
	o.cond = sync.NewCond(&o.mu)
	for i := range o.Queues {
		q := NewQueue(queueCap)
		q.onPush = o.wake
		o.Queues[i] = q
	}
	return o
}

// wake pokes waiting workers. Taking the scheduling lock orders the wakeup
// against the check-then-wait in acquire, avoiding lost notifications.
func (o *Operation) wake() {
	o.mu.Lock()
	o.cond.Broadcast()
	o.mu.Unlock()
}

// Stats exposes the operation's counters.
func (o *Operation) Stats() *OpStats { return o.stats }

// spiller is implemented by operators that can go to disk (Join, Aggregate,
// Store via their embedded spill counters).
type spiller interface {
	SpillStats() (bytes, passes int64)
}

// noteSpill copies op's spill counters into s; operators that never spill
// leave them at zero.
func (s *OpStats) noteSpill(op operator.Operator) {
	if sp, ok := op.(spiller); ok {
		bytes, passes := sp.SpillStats()
		s.SpilledBytes.Store(bytes)
		s.SpillPasses.Store(passes)
	}
}

// run starts the worker pool; the WaitGroup is released as workers exit.
func (o *Operation) run(wg *sync.WaitGroup) {
	for w := 0; w < o.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			o.worker(w)
		}(w)
	}
}

// worker is the pool thread body: acquire a batch from a main queue first,
// then from a secondary queue by strategy; process it through the operator;
// run instance closes when an instance drains; exit when the operation is
// drained.
func (o *Operation) worker(w int) {
	main, mainIdx := MainQueues(o.Queues, w, o.Workers)
	strat := NewStrategy(o.Strat, newSplitMix(o.seed+int64(w)))
	cache := make([]Activation, 0, o.CacheSize)
	em := newRouteEmitter(o)
	we := newWorkerEmit(em, o.CacheSize)
	// Worker-private tuple scratch: runs of pipelined activations are
	// gathered here and handed to OnBatch in one call.
	tup := make([]relation.Tuple, 0, o.CacheSize)

	for {
		batch, qi, ok := o.acquire(strat, main, mainIdx, cache, we)
		if !ok {
			return
		}
		if len(batch) == 0 {
			continue
		}
		o.stats.perWorker[w].Add(int64(len(batch)))
		o.process(qi, batch, we, tup)
		// Flush at the batch boundary: every trigger boundary and pipelined
		// activation batch delivers its buffered output before the batch is
		// retired — an operation can never complete (and close its consumers'
		// queues) with tuples still parked in a route buffer.
		em.flush()
		o.finishBatch(qi, len(batch), we)
		cache = batch[:0]
	}
}

// acquire picks a queue and drains a batch into cache. ok=false means the
// operation is fully drained and the worker should exit (after the instance
// close sweep).
func (o *Operation) acquire(strat Strategy, main []*Queue, mainIdx []int, cache []Activation, we *workerEmit) ([]Activation, int, bool) {
	o.mu.Lock()
	for {
		if o.aborted {
			o.mu.Unlock()
			return nil, -1, false
		}
		qi, secondary := Pick(strat, main, mainIdx, o.Queues)
		if secondary {
			o.stats.SecondaryPicks.Add(1)
		}
		if qi >= 0 {
			batch := o.Queues[qi].PopBatch(o.CacheSize, cache)
			if len(batch) > 0 {
				o.inflight[qi] += len(batch)
				o.mu.Unlock()
				o.stats.Batches.Add(1)
				o.stats.Activations.Add(int64(len(batch)))
				return batch, qi, true
			}
			// Raced with another worker; rescan.
			continue
		}
		if o.allDrainedLocked() {
			sweep := o.claimClosesLocked()
			o.mu.Unlock()
			o.runCloses(sweep, we)
			return nil, -1, false
		}
		o.cond.Wait()
	}
}

// allDrainedLocked reports whether every queue is closed and empty.
func (o *Operation) allDrainedLocked() bool {
	for _, q := range o.Queues {
		if !q.Drained() {
			return false
		}
	}
	return true
}

// claimClosesLocked claims instances whose close has not started and which
// have no in-flight activations.
func (o *Operation) claimClosesLocked() []int {
	var out []int
	for i := range o.Queues {
		if !o.closeBegun[i] && o.inflight[i] == 0 {
			o.closeBegun[i] = true
			out = append(out, i)
		}
	}
	return out
}

// process runs the operator on a batch through dispatch. Panics inside
// operators are engine bugs and propagate; data errors are recorded and stop
// further emission. The emitted counter is accumulated locally and published
// once per batch — one atomic add instead of one per tuple. Activation counts
// are untouched: each tuple and trigger was already counted when its
// activation was acquired.
func (o *Operation) process(qi int, batch []Activation, we *workerEmit, tup []relation.Tuple) {
	if !o.setup(qi) {
		return
	}
	we.qi, we.emitted = qi, 0
	o.dispatch(o.ctxs[qi], batch, we.fn, tup)
	we.flushRun()
	if we.emitted > 0 {
		o.stats.Emitted.Add(we.emitted)
	}
}

// setup runs instance qi's Setup once and reports whether it succeeded. An
// instance whose Setup failed has no state to run on: the error is
// recorded, and its activations and close are skipped.
func (o *Operation) setup(qi int) bool {
	s := &o.setups[qi]
	s.Do(func() {
		o.stats.Setups.Add(1)
		if err := o.op.Setup(o.ctxs[qi]); err != nil {
			o.fail(err)
			s.failed = true
		}
	})
	return !s.failed
}

// instanceSetup runs one instance's Setup once; failed is written inside
// Do and read after it.
type instanceSetup struct {
	sync.Once
	failed bool
}

// triggerRun is how many tuples of its operand a trigger hands to OnBatch
// at a time: the default batch grain times four, long enough to amortize an
// operator's per-run work (a key-hash pass, a selection vector) and short
// enough that its scratch vectors stay in cache and an abort is noticed
// within one run.
const triggerRun = 256

// dispatch walks one activation batch, handing everything to OnBatch in
// runs: consecutive pipelined tuples are gathered into the worker's tup
// scratch (runs of one under NoVectorize), and a trigger's operand — the
// instance's bound Input, or its [Lo, Hi) slice — is cut into runs of
// triggerRun. The abort flag is polled before every run; an error is
// recorded via fail and stops the batch.
func (o *Operation) dispatch(ctx *operator.Context, batch []Activation, emit operator.Emit, tup []relation.Tuple) {
	for i := 0; i < len(batch); {
		if a := batch[i]; a.Tuple == nil {
			operand := ctx.Input
			if a.Hi > 0 {
				operand = operand[a.Lo:a.Hi]
			}
			for len(operand) > 0 {
				n := min(len(operand), triggerRun)
				if !o.onBatch(ctx, operand[:n], emit) {
					return
				}
				operand = operand[n:]
			}
			i++
			continue
		}
		j := i + 1
		for !o.noVectorize && j < len(batch) && batch[j].Tuple != nil {
			j++
		}
		tup = tup[:0]
		for _, b := range batch[i:j] {
			tup = append(tup, b.Tuple)
		}
		if !o.onBatch(ctx, tup, emit) {
			return
		}
		i = j
	}
}

// onBatch hands one run to the operator unless the operation was aborted,
// and reports whether dispatch should go on.
func (o *Operation) onBatch(ctx *operator.Context, ts []relation.Tuple, emit operator.Emit) bool {
	if o.abortFlag.Load() {
		return false
	}
	if err := o.op.OnBatch(ctx, ts, emit); err != nil {
		o.fail(err)
		return false
	}
	return true
}

// InjectTriggers pushes the control activations of a triggered operation and
// closes its queues. grain 0 sends one whole-fragment trigger per instance
// (the paper's model); grain g > 0 splits each instance's triggered operand,
// its Input, into ceil(span/g) partial triggers of at most g tuples (§6
// future work).
func (o *Operation) InjectTriggers(grain int) {
	var batch []Activation // reused across queues; PushBatch copies
	for i, q := range o.Queues {
		span := len(o.ctxs[i].Input)
		if grain <= 0 || span == 0 {
			q.Push(Activation{})
		} else {
			batch = batch[:0]
			for lo := 0; lo < span; lo += grain {
				hi := lo + grain
				if hi > span {
					hi = span
				}
				batch = append(batch, Activation{Lo: int32(lo), Hi: int32(hi)})
			}
			q.PushBatch(batch)
		}
		q.Close()
	}
}

// finishBatch retires in-flight activations and runs the instance close when
// the instance drained.
func (o *Operation) finishBatch(qi, n int, we *workerEmit) {
	o.mu.Lock()
	o.inflight[qi] -= n
	var toClose []int
	if o.Queues[qi].Drained() && o.inflight[qi] == 0 && !o.closeBegun[qi] {
		o.closeBegun[qi] = true
		toClose = append(toClose, qi)
	}
	o.mu.Unlock()
	o.runCloses(toClose, we)
}

// runCloses executes OnClose for the claimed instances and fires the
// operation-complete callback after the last one. OnClose output (buffered
// aggregate state) is flushed downstream before the completion accounting, so
// the callback — which closes consumer queues — never races a pending buffer.
func (o *Operation) runCloses(instances []int, we *workerEmit) {
	for _, qi := range instances {
		if !o.setup(qi) {
			continue
		}
		we.qi, we.emitted = qi, 0
		if err := o.op.OnClose(o.ctxs[qi], we.fn); err != nil {
			o.fail(err)
		}
		we.flushRun()
		if we.emitted > 0 {
			o.stats.Emitted.Add(we.emitted)
		}
	}
	if len(instances) == 0 {
		return
	}
	we.em.flush()
	o.mu.Lock()
	o.doneCount += len(instances)
	complete := o.doneCount == len(o.Queues) && !o.completed
	if complete {
		o.completed = true
	}
	o.mu.Unlock()
	if complete && o.onComplete != nil {
		o.onComplete()
	}
}

// abort cancels the operation: workers exit at their next acquire, blocked
// producers pushing into this operation's queues are released, and further
// pushes are dropped. Instance closes and the completion callback are
// skipped — a cancelled execution reports no result.
func (o *Operation) abort() {
	o.abortFlag.Store(true)
	o.mu.Lock()
	o.aborted = true
	o.cond.Broadcast()
	o.mu.Unlock()
	for _, q := range o.Queues {
		q.Abort()
	}
}

// fail records the first operator error.
func (o *Operation) fail(err error) {
	o.mu.Lock()
	if o.firstErr == nil {
		o.firstErr = fmt.Errorf("core: operation %s: %w", o.Name, err)
	}
	o.mu.Unlock()
}

// Err returns the first operator error, if any.
func (o *Operation) Err() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.firstErr
}
