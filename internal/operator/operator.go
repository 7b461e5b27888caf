// Package operator implements the sequential relational operators that
// Lera-par nodes execute. Each operator processes *activations* — a trigger
// (process my bound fragment) or a run of pipelined tuples — and emits result
// tuples downstream. The execution engine (package core) owns
// queues, threads and routing; operators only see their instance context and
// an emit callback, which is what makes any pool thread able to execute any
// instance's activation (§3).
package operator

import (
	"sort"
	"sync"

	"dbs3/internal/lera"
	"dbs3/internal/relation"
	"dbs3/internal/storage"
)

// Emit sends one result tuple downstream. The engine routes it to the right
// consumer instance(s); Emit may block on queue backpressure.
type Emit func(t relation.Tuple)

// Context is the per-instance execution context. Fragments are immutable
// during execution; State is operator-private per-instance state, prepared
// by Setup (the engine guarantees Setup runs exactly once per instance,
// before any activation).
type Context struct {
	// Instance is the operator instance index (= fragment index).
	Instance int
	// Input is the bound fragment of filter/transmit instances.
	Input []relation.Tuple
	// Build and Probe are the bound fragments of join instances; Probe is
	// nil for pipelined joins.
	Build, Probe []relation.Tuple
	// State is operator-private; set by Setup.
	State any
	// Mu guards State for operators that mutate it per-tuple (aggregates):
	// the execution model lets any pool thread process any instance's
	// activation, so two threads can be inside the same instance at once.
	Mu sync.Mutex
}

// Operator is the sequential logic of one Lera-par node.
type Operator interface {
	// Setup prepares per-instance state (e.g. builds a hash table on the
	// build fragment). Runs once per instance.
	Setup(ctx *Context) error
	// OnTrigger processes a control activation (triggered operations).
	OnTrigger(ctx *Context, emit Emit) error
	// OnBatch processes a run of pipelined tuple activations (pipelined
	// operations): as many consecutive tuples of one popped activation batch
	// as the engine chose to hand over — up to the internal cache size, or
	// exactly one under core.Options.NoVectorize. Implementations amortize
	// across the run (selection vectors, one key-hash pass, one lock epoch)
	// but the result must not depend on where the runs were cut: the emitted
	// multiset is that of processing the tuples one at a time, in order.
	// emit may block on backpressure. An error stops the run (tuples before
	// the failure may already have emitted). The slice is worker-owned
	// scratch and must not be retained after return; the Tuples inside it
	// are immutable and may be kept.
	OnBatch(ctx *Context, tuples []relation.Tuple, emit Emit) error
	// OnClose runs after the instance's last activation completed (the
	// engine guarantees exactly-once, after-everything ordering). Operators
	// with buffered state (aggregates) emit it here.
	OnClose(ctx *Context, emit Emit) error
}

// PerTuple adapts a one-tuple-at-a-time body to Operator, for pipelined
// operators with nothing to amortize across a run (and test doubles): OnBatch
// calls the function once per tuple, in order, and stops at its first error.
// It has no per-instance state, nothing to flush, and takes no triggers.
type PerTuple func(ctx *Context, t relation.Tuple, emit Emit) error

// Setup implements Operator.
func (PerTuple) Setup(*Context) error { return nil }

// OnTrigger implements Operator.
func (PerTuple) OnTrigger(*Context, Emit) error { return errNoTrigger("per-tuple operator") }

// OnBatch implements Operator.
func (f PerTuple) OnBatch(ctx *Context, ts []relation.Tuple, emit Emit) error {
	for _, t := range ts {
		if err := f(ctx, t, emit); err != nil {
			return err
		}
	}
	return nil
}

// OnClose implements Operator.
func (PerTuple) OnClose(*Context, Emit) error { return nil }

// batchScratch holds the per-batch working buffers of vectorized operators
// (key hashes, selection vectors). Pooled so the hot path allocates nothing
// per batch without per-operator-instance state: any pool thread can run any
// instance, so the scratch cannot live on the Context without locking.
type batchScratch struct {
	keys []uint64
	sel  relation.Selection
	// slab is where operators' result tuples are born (join concatenations,
	// projections, aggregate outputs). Emitted tuples keep their chunk alive
	// after the scratch returns to the pool; the slab only ever hands out
	// space past them. State an operator keeps (group keys) does not belong
	// here: it would pin chunks otherwise full of short-lived results.
	slab relation.Slab
}

var scratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// nopClose is embedded by operators with nothing to flush.
type nopClose struct{}

func (nopClose) OnClose(*Context, Emit) error { return nil }

// nopSetup is embedded by operators with no per-instance state.
type nopSetup struct{}

func (nopSetup) Setup(*Context) error { return nil }

// errNoTrigger panics for pipelined-only operators receiving triggers; the
// planner prevents this, so it is an engine bug, not a user error.
func errNoTrigger(name string) error {
	panic("operator: " + name + " received a trigger; plan binding should have prevented this")
}

// Filter scans its bound fragment and emits tuples satisfying the bound
// predicate. Triggered: one activation processes the whole fragment, which
// is the paper's "coarse grain" unit of work.
type Filter struct {
	nopSetup
	nopClose
	Pred lera.Predicate
}

// OnTrigger implements Operator.
func (f *Filter) OnTrigger(ctx *Context, emit Emit) error {
	for _, t := range ctx.Input {
		if f.Pred.Eval(t) {
			emit(t)
		}
	}
	return nil
}

// OnBatch implements Operator: a pipelined filter applies the predicate to
// the redistributed stream (used for residual predicates after joins). The
// predicate is evaluated over the whole run into a selection vector (column
// index and comparison hoisted out of the loop, conjunctions narrowing
// progressively), then only the survivors are emitted.
func (f *Filter) OnBatch(_ *Context, ts []relation.Tuple, emit Emit) error {
	sc := scratchPool.Get().(*batchScratch)
	sel := lera.EvalBatch(f.Pred, ts, sc.sel)
	for _, i := range sel {
		emit(ts[i])
	}
	sc.sel = sel
	scratchPool.Put(sc)
	return nil
}

// Transmit forwards tuples downstream; redistribution happens on the edge
// (the engine routes each emitted tuple by hash). Bound transmits are
// triggered and read their fragment; pipelined transmits re-route a stream.
type Transmit struct {
	nopSetup
	nopClose
}

// OnTrigger implements Operator.
func (tr *Transmit) OnTrigger(ctx *Context, emit Emit) error {
	for _, t := range ctx.Input {
		emit(t)
	}
	return nil
}

// OnBatch implements Operator.
func (tr *Transmit) OnBatch(_ *Context, ts []relation.Tuple, emit Emit) error {
	for _, t := range ts {
		emit(t)
	}
	return nil
}

// Map projects tuples onto a column subset.
type Map struct {
	nopSetup
	nopClose
	Cols []int
}

// OnTrigger implements Operator.
func (m *Map) OnTrigger(*Context, Emit) error { return errNoTrigger("map") }

// OnBatch implements Operator.
func (m *Map) OnBatch(_ *Context, ts []relation.Tuple, emit Emit) error {
	sc := scratchPool.Get().(*batchScratch)
	for _, t := range ts {
		emit(sc.slab.Project(t, m.Cols))
	}
	scratchPool.Put(sc)
	return nil
}

// Store materializes its input: tuples accumulate per instance and the
// engine collects Results when the operation completes. Store terminates a
// pipeline chain (a materialization point between subqueries). With a Spill
// env, an instance whose accumulation exceeds the query's memory grant
// flushes its buffered tuples to a spill run and keeps going; Results reads
// the runs back in.
type Store struct {
	nopSetup
	nopClose
	mu      sync.Mutex
	results [][]relation.Tuple
	bytes   []int64
	runs    [][]storage.Run
	// Spill enables larger-than-memory accumulation; nil stores everything
	// in memory (the paper's regime).
	Spill *storage.SpillEnv
	spillCounters
}

// NewStore creates a store with the given instance count.
func NewStore(degree int) *Store {
	return &Store{
		results: make([][]relation.Tuple, degree),
		bytes:   make([]int64, degree),
		runs:    make([][]storage.Run, degree),
	}
}

// OnTrigger implements Operator.
func (s *Store) OnTrigger(*Context, Emit) error { return errNoTrigger("store") }

// OnBatch implements Operator: one lock acquire appends the whole run
// (the batch slice is scratch; the appended Tuples are immutable and safely
// retained).
func (s *Store) OnBatch(ctx *Context, ts []relation.Tuple, _ Emit) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := ctx.Instance
	s.results[i] = append(s.results[i], ts...)
	var add int64
	for _, t := range ts {
		add += storage.TupleFootprint(t)
	}
	return s.chargeLocked(i, add)
}

// chargeLocked accounts freshly buffered bytes and flushes the instance to
// a spill run when the query's grant is exceeded. Flushing waits for at
// least a page of buffered tuples so overrun never degenerates into a run
// per tuple; the caller holds s.mu.
func (s *Store) chargeLocked(i int, add int64) error {
	s.bytes[i] += add
	if s.Spill == nil {
		return nil
	}
	if s.Spill.Mem.Reserve(add) || s.bytes[i] < storage.PageSize {
		return nil
	}
	w := s.Spill.NewRun()
	for _, t := range s.results[i] {
		if err := w.Add(t); err != nil {
			return err
		}
	}
	run, err := w.Finish()
	if err != nil {
		return err
	}
	s.runs[i] = append(s.runs[i], run)
	s.notePass(run.Bytes(), s.Spill)
	s.Spill.Mem.Release(s.bytes[i])
	s.bytes[i] = 0
	s.results[i] = nil
	return nil
}

// Results returns the materialized fragments, reading spilled runs back
// from their files. Call only after execution completes.
func (s *Store) Results() ([][]relation.Tuple, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([][]relation.Tuple, len(s.results))
	for i := range s.results {
		if len(s.runs[i]) == 0 {
			out[i] = s.results[i]
			continue
		}
		n := len(s.results[i])
		for _, r := range s.runs[i] {
			n += r.Len()
		}
		frag := make([]relation.Tuple, 0, n)
		for _, r := range s.runs[i] {
			ts, err := r.All()
			if err != nil {
				return nil, err
			}
			frag = append(frag, ts...)
		}
		out[i] = append(frag, s.results[i]...)
	}
	return out, nil
}

// Sink terminates a pipeline chain like Store, but hands each tuple to an
// external consumer as it arrives instead of accumulating fragments — the
// engine-side half of a streaming row cursor. Push may block (bounded-buffer
// backpressure propagates into the producing pool threads) and its error
// aborts the operation, which is how closing a cursor mid-result unwinds the
// execution.
type Sink struct {
	nopSetup
	nopClose
	// Push delivers one result tuple; it must be safe for concurrent calls
	// (any pool thread can execute any instance's activation).
	Push func(t relation.Tuple) error
	// PushBatch, when set, delivers a whole run of tuples in one call (one
	// sink synchronization per batch instead of per tuple). Same contract as
	// Push plus OnBatch's: the slice is scratch and must not be retained
	// after return.
	PushBatch func(ts []relation.Tuple) error
}

// OnTrigger implements Operator.
func (s *Sink) OnTrigger(*Context, Emit) error { return errNoTrigger("sink") }

// OnBatch implements Operator.
func (s *Sink) OnBatch(_ *Context, ts []relation.Tuple, _ Emit) error {
	if s.PushBatch != nil {
		return s.PushBatch(ts)
	}
	for _, t := range ts {
		if err := s.Push(t); err != nil {
			return err
		}
	}
	return nil
}

// Join and group-by keys are 64-bit hashes computed directly over the key
// columns: no projected tuple, no canonical string — nothing is materialized
// or allocated per probed/grouped tuple. Distinct keys can collide on the
// hash, so every hash-equal candidate is verified against the actual key
// columns (joinKeysEqual / groupMatches) before it joins or accumulates.
//
// The hash only needs to be consistent *within* one operator instance (build
// vs probe, accumulate vs lookup) — it never has to match the partitioning
// hash — so the hot single-int-key case uses a 3-round multiply/xorshift
// mixer instead of byte-at-a-time FNV (relation.Tuple.HashOn), which the
// build-side (hashKey) and probe-run (hashKeys) forms below both go through.

// mix64 is the splitmix64 finalizer: full avalanche over a 64-bit key in six
// data-independent-latency ops.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// hashKey computes the join/group key hash of one tuple.
func hashKey(t relation.Tuple, cols []int) uint64 {
	if len(cols) == 1 {
		if v := t[cols[0]]; v.Kind() == relation.TInt {
			return mix64(uint64(v.AsInt()))
		}
	}
	return t.HashOn(cols)
}

// hashKeys is the batch form of hashKey: one bounds-checked pass over the
// run, appending to dst. Per-tuple results are identical to hashKey.
func hashKeys(ts []relation.Tuple, cols []int, dst []uint64) []uint64 {
	if len(cols) == 1 {
		c := cols[0]
		for _, t := range ts {
			if v := t[c]; v.Kind() == relation.TInt {
				dst = append(dst, mix64(uint64(v.AsInt())))
			} else {
				dst = append(dst, t.HashOn(cols))
			}
		}
		return dst
	}
	return relation.HashTuplesOn(ts, cols, dst)
}

// buildIndex is the per-instance state of hash and temp-index joins.
type buildIndex struct {
	// HashJoin: a flat chained hash table over build-key hashes. slots maps
	// hash&mask to a 1-based entry index; entries with colliding slots chain
	// through next. Three flat allocations total (no per-bucket slices), and
	// probing is two array loads per visited entry — the probe verifies each
	// hash-equal entry against the real key columns.
	mask  uint64
	slots []int32
	next  []int32
	keys  []uint64
	build []relation.Tuple
	// sorted holds build tuples ordered by key hash with a parallel hash
	// slice for binary search (TempIndex — DBS3 "builds indexes on the
	// fly"); probes verify the hash-equal run against the key columns.
	sortedKeys []uint64
	sorted     []relation.Tuple
}

// Join implements the three join algorithms over equi-join keys. The build
// side is always a bound fragment; the probe side is either the bound Probe
// fragment (triggered, the paper's IdealJoin) or the pipelined input (the
// paper's AssocJoin).
type Join struct {
	Algo     lera.JoinAlgo
	BuildKey []int
	ProbeKey []int
	// Spill enables Grace-style larger-than-memory execution for the hash
	// and temp-index algorithms: a build side exceeding the query's memory
	// grant is partitioned to disk, probe tuples are routed to matching
	// partitions, and OnClose joins partition pairs (recursively
	// repartitioning ones that still don't fit). Nil means always in
	// memory; nested loop never spills (it probes the resident fragment
	// directly and builds no auxiliary state).
	Spill *storage.SpillEnv
	spillCounters
}

// Setup implements Operator: builds the hash table or temporary index, or —
// when the build side exceeds the memory grant — partitions it to disk.
func (j *Join) Setup(ctx *Context) error {
	if j.Spill != nil && j.Algo != lera.NestedLoop {
		need := buildFootprint(ctx.Build)
		if !j.Spill.Mem.Reserve(need) {
			j.Spill.Mem.Release(need)
			g, err := j.newGraceState(ctx.Build, 0)
			if err != nil {
				return err
			}
			ctx.State = g
			return nil
		}
	}
	return j.buildState(ctx)
}

// buildState constructs the in-memory build structure for ctx.Build.
func (j *Join) buildState(ctx *Context) error {
	switch j.Algo {
	case lera.NestedLoop:
		// No auxiliary structure: probing scans the fragment.
	case lera.HashJoin:
		n := len(ctx.Build)
		size := 8
		for size < 2*n {
			size *= 2
		}
		links := make([]int32, size+n) // slots and next, one allocation
		idx := &buildIndex{
			mask:  uint64(size - 1),
			slots: links[:size:size],
			next:  links[size:],
			keys:  make([]uint64, n),
			build: ctx.Build,
		}
		for i, b := range ctx.Build {
			k := hashKey(b, j.BuildKey)
			s := k & idx.mask
			idx.keys[i] = k
			idx.next[i] = idx.slots[s]
			idx.slots[s] = int32(i + 1)
		}
		ctx.State = idx
	case lera.TempIndex:
		// Each build key is hashed exactly once, then tuples are reordered
		// by the precomputed keys — never O(n log n) key computations
		// inside the sort comparator.
		n := len(ctx.Build)
		keys := make([]uint64, n)
		order := make([]int, n)
		for i, b := range ctx.Build {
			keys[i] = hashKey(b, j.BuildKey)
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
		idx := &buildIndex{
			sortedKeys: make([]uint64, n),
			sorted:     make([]relation.Tuple, n),
		}
		for i, o := range order {
			idx.sortedKeys[i] = keys[o]
			idx.sorted[i] = ctx.Build[o]
		}
		ctx.State = idx
	}
	return nil
}

// probeRun emits the build⨝probe concatenations of a run of probe tuples
// against the instance's in-memory build structure — the one probe path of
// triggers, pipelined tuples and batches, and of Grace partition pairs.
// Hash and temp-index joins key-hash the whole run in one pass (one
// bounds-checked loop over the key columns, no per-call overhead interleaved
// with probing) and then probe hash-first, verifying each hash-equal
// candidate against the real key columns; nested loop has no key structure
// to amortize and scans the build fragment per probe tuple. Result tuples
// are carved from sc's slab.
func (j *Join) probeRun(ctx *Context, sc *batchScratch, ts []relation.Tuple, emit Emit) {
	switch j.Algo {
	case lera.NestedLoop:
		for _, t := range ts {
			for _, b := range ctx.Build {
				if joinKeysEqual(b, t, j.BuildKey, j.ProbeKey) {
					emit(sc.slab.Concat(b, t))
				}
			}
		}
	case lera.HashJoin:
		idx := ctx.State.(*buildIndex)
		sc.keys = hashKeys(ts, j.ProbeKey, sc.keys[:0])
		for i, t := range ts {
			k := sc.keys[i]
			for e := idx.slots[k&idx.mask]; e != 0; e = idx.next[e-1] {
				if idx.keys[e-1] == k {
					if b := idx.build[e-1]; joinKeysEqual(b, t, j.BuildKey, j.ProbeKey) {
						emit(sc.slab.Concat(b, t))
					}
				}
			}
		}
	case lera.TempIndex:
		idx := ctx.State.(*buildIndex)
		sc.keys = hashKeys(ts, j.ProbeKey, sc.keys[:0])
		sorted := idx.sortedKeys
		for i, t := range ts {
			k := sc.keys[i]
			m := sort.Search(len(sorted), func(n int) bool { return sorted[n] >= k })
			for ; m < len(sorted) && sorted[m] == k; m++ {
				if b := idx.sorted[m]; joinKeysEqual(b, t, j.BuildKey, j.ProbeKey) {
					emit(sc.slab.Concat(b, t))
				}
			}
		}
	}
}

func joinKeysEqual(b, p relation.Tuple, bk, pk []int) bool {
	for i := range bk {
		if !b[bk[i]].Equal(p[pk[i]]) {
			return false
		}
	}
	return true
}

// triggerRun is how many tuples of its bound probe fragment a triggered join
// hands to probeRun at a time: the engine's default batch grain times four,
// long enough to amortize the key-hash pass and short enough that the
// scratch key vector stays in cache and does not grow to the size of the
// largest fragment ever probed.
const triggerRun = 256

// OnTrigger implements Operator: the triggered join processes its whole
// bound probe fragment as one sequential unit of work, in runs through the
// same batch path pipelined probes take.
func (j *Join) OnTrigger(ctx *Context, emit Emit) error {
	if g, ok := ctx.State.(*graceState); ok {
		return g.addProbeBatch(j, ctx.Probe)
	}
	sc := scratchPool.Get().(*batchScratch)
	for ts := ctx.Probe; len(ts) > 0; {
		n := min(len(ts), triggerRun)
		j.probeRun(ctx, sc, ts[:n], emit)
		ts = ts[n:]
	}
	scratchPool.Put(sc)
	return nil
}

// OnClose implements Operator: an instance that went to disk joins its
// partition pairs here, after the last probe activation.
func (j *Join) OnClose(ctx *Context, emit Emit) error {
	if g, ok := ctx.State.(*graceState); ok {
		return j.closeGrace(g, emit, 0)
	}
	return nil
}

// OnBatch implements Operator: the pipelined join probes a run of
// redistributed tuples (each one a fine-grain unit of work).
func (j *Join) OnBatch(ctx *Context, ts []relation.Tuple, emit Emit) error {
	if g, ok := ctx.State.(*graceState); ok {
		return g.addProbeBatch(j, ts)
	}
	sc := scratchPool.Get().(*batchScratch)
	j.probeRun(ctx, sc, ts, emit)
	scratchPool.Put(sc)
	return nil
}

// aggState is one group's accumulator.
type aggState struct {
	group relation.Tuple
	count int64
	sum   int64
	min   relation.Value
	max   relation.Value
	seen  bool
}

// Aggregate groups pipelined tuples and emits one result per group on close.
// Groups must be routed so a group lands on exactly one instance (the plan
// validator enforces hash routing on the group key). With a Spill env, an
// instance whose group table exceeds the query's memory grant writes the
// accumulators as a group-key-sorted run and starts fresh; OnClose merges
// the runs with the final in-memory table, combining accumulators groupwise.
type Aggregate struct {
	GroupBy []int
	Kind    lera.AggKind
	AggCol  int // -1 for COUNT
	Spill   *storage.SpillEnv
	spillCounters
}

// aggInst is the per-instance aggregation state: the live group table plus
// any spilled runs. All fields are guarded by ctx.Mu.
type aggInst struct {
	groups map[uint64][]*aggState
	// slab owns what the table keeps of its input: group keys and MIN/MAX
	// strings are re-homed into it, because a group outlives nearly every
	// tuple that fed it and must not pin their chunks and arenas (spill
	// read-back slabs above all). It is dropped with the table on a spill.
	slab  relation.Slab
	bytes int64 // accounted resident bytes of groups
	runs  []storage.Run
}

// newGroup starts the accumulator of the group t belongs to.
func (inst *aggInst) newGroup(t relation.Tuple, cols []int) *aggState {
	g := inst.slab.New(len(cols))
	for i, c := range cols {
		g[i] = inst.slab.RehomeValue(t[c])
	}
	return &aggState{group: g}
}

// groupMatches reports whether tuple t belongs to the group keyed by g: g
// was built by projecting the group-by columns, so g[i] pairs with t[cols[i]].
func groupMatches(g, t relation.Tuple, cols []int) bool {
	for i, c := range cols {
		if !g[i].Equal(t[c]) {
			return false
		}
	}
	return true
}

// Setup implements Operator.
func (a *Aggregate) Setup(ctx *Context) error {
	ctx.State = &aggInst{groups: make(map[uint64][]*aggState)}
	return nil
}

// OnTrigger implements Operator.
func (a *Aggregate) OnTrigger(*Context, Emit) error { return errNoTrigger("aggregate") }

// OnBatch implements Operator: the whole run is group-hashed outside the
// instance lock (in place, allocating nothing — only a group's first tuple
// materializes the group key), then accumulated under a single lock epoch:
// one acquire per run, not per tuple, which is the contention the execution
// model's any-thread-any-instance rule creates on aggregates.
func (a *Aggregate) OnBatch(ctx *Context, ts []relation.Tuple, _ Emit) error {
	sc := scratchPool.Get().(*batchScratch)
	keys := hashKeys(ts, a.GroupBy, sc.keys[:0])
	ctx.Mu.Lock()
	inst := ctx.State.(*aggInst)
	var err error
	for i, t := range ts {
		if err = a.accumulateLocked(inst, keys[i], t); err != nil {
			break
		}
	}
	ctx.Mu.Unlock()
	sc.keys = keys
	scratchPool.Put(sc)
	return err
}

// accumulateLocked folds one tuple into its group, spilling the group table
// when a new group pushes it past the memory grant; the caller holds ctx.Mu.
func (a *Aggregate) accumulateLocked(inst *aggInst, key uint64, t relation.Tuple) error {
	var st *aggState
	for _, cand := range inst.groups[key] {
		if groupMatches(cand.group, t, a.GroupBy) {
			st = cand
			break
		}
	}
	if st == nil {
		st = inst.newGroup(t, a.GroupBy)
		inst.groups[key] = append(inst.groups[key], st)
		add := storage.TupleFootprint(st.group) + aggStateOverhead
		inst.bytes += add
		if a.Spill != nil && !a.Spill.Mem.Reserve(add) {
			if err := a.spillLocked(inst); err != nil {
				return err
			}
			// The just-created group spilled with the rest; re-create it so
			// this tuple has somewhere to accumulate.
			st = inst.newGroup(t, a.GroupBy)
			inst.groups[key] = append(inst.groups[key], st)
			inst.bytes += add
			a.Spill.Mem.Reserve(add)
		}
	}
	st.count++
	if a.AggCol >= 0 {
		v := t[a.AggCol]
		switch a.Kind {
		case lera.AggSum:
			st.sum += v.AsInt()
		case lera.AggMin:
			if !st.seen || v.Compare(st.min) < 0 {
				st.min = inst.slab.RehomeValue(v)
			}
		case lera.AggMax:
			if !st.seen || v.Compare(st.max) > 0 {
				st.max = inst.slab.RehomeValue(v)
			}
		}
		st.seen = true
	}
	return nil
}

// final renders one group's result tuple in slab.
func (a *Aggregate) final(slab *relation.Slab, st *aggState) relation.Tuple {
	var v relation.Value
	switch a.Kind {
	case lera.AggCount:
		v = relation.Int(st.count)
	case lera.AggSum:
		v = relation.Int(st.sum)
	case lera.AggMin:
		v = st.min
	case lera.AggMax:
		v = st.max
	}
	return slab.Concat(st.group, relation.Tuple{v})
}

// OnClose implements Operator: emits one tuple per group, merging spilled
// runs with the in-memory table when the instance overflowed.
func (a *Aggregate) OnClose(ctx *Context, emit Emit) error {
	sc := scratchPool.Get().(*batchScratch)
	defer scratchPool.Put(sc)
	ctx.Mu.Lock()
	inst := ctx.State.(*aggInst)
	if len(inst.runs) > 0 {
		err := a.mergeRunsLocked(inst, &sc.slab, emit)
		ctx.Mu.Unlock()
		return err
	}
	out := make([]relation.Tuple, 0, len(inst.groups))
	for _, bucket := range inst.groups {
		for _, st := range bucket {
			out = append(out, a.final(&sc.slab, st))
		}
	}
	ctx.Mu.Unlock()
	// Deterministic emission order helps tests; sort by group values.
	sort.Slice(out, func(i, k int) bool { return out[i].Compare(out[k]) < 0 })
	for _, t := range out {
		emit(t)
	}
	return nil
}
