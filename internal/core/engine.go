package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"dbs3/internal/lera"
	"dbs3/internal/operator"
	"dbs3/internal/partition"
	"dbs3/internal/relation"
	"dbs3/internal/storage"
)

// DB maps relation names to their in-memory partitioned form. The engine
// reads base relations from it and adds store outputs to a copy as chains
// complete (materialized results feed later chains).
type DB map[string]*partition.Partitioned

// Options configure one execution.
type Options struct {
	// Threads is the query's total degree of parallelism; 0 = scheduler
	// step 1 chooses from complexity.
	Threads int
	// Processors caps auto-chosen parallelism; defaults to GOMAXPROCS.
	Processors int
	// Strategy overrides the per-operation consumption strategy;
	// StrategyAuto (default) keeps the scheduler's choice.
	Strategy StrategyKind
	// CacheSize is the internal activation cache (batch) size — the upper
	// bound on one queue drain, and so on the tuple runs the vectorized
	// OnBatch path sees; default 64.
	CacheSize int
	// BatchGrain is the producer-side batch size of the pipelined data
	// plane: each pool thread buffers emitted tuples per destination queue
	// and delivers them with a single lock acquire and consumer wake
	// (Queue.PushBatch) once this many accumulate — or sooner, at every
	// trigger boundary, activation-batch boundary and instance close.
	// 1 disables batching (one push per tuple, the paper's protocol);
	// 0 = DefaultBatchGrain. The grain changes only how tuples travel:
	// each still arrives as its own activation, so activation counts,
	// consumption strategies and the skew formula's a are untouched.
	BatchGrain int
	// NoVectorize hands operators runs of one: every pipelined tuple popped
	// from an activation queue gets its own OnBatch call — the paper's
	// original processing model. Off (the default) hands over each popped
	// run whole, for the operator to vectorize inside. Either way the
	// observable execution is identical: same activation counts, same
	// emitted multisets, same per-node OpStats. With BatchGrain 1 this is
	// the per-tuple protocol bench/ measures the batched data plane against;
	// neither switch is exposed above this package.
	NoVectorize bool
	// QueueCap is each activation queue's capacity; default 256.
	QueueCap int
	// Seed makes the Random strategy deterministic; default 1.
	Seed int64
	// TriggerGrain splits each triggered instance's operand into partial
	// triggers of at most this many tuples (0 = one trigger per instance,
	// the paper's model). This is the paper's §6 future-work knob: a finer
	// grain multiplies the activation count of triggered operations, which
	// defeats skew without raising the degree of partitioning.
	TriggerGrain int
	// Utilization is the average processor utilization by other queries, in
	// [0, 1). Step 1 reduces the auto-chosen thread count by this factor
	// "in order to increase the multi-user throughput" [Rahm93]. Explicit
	// Threads settings are not reduced.
	Utilization float64
	// Machine is the hardware (or budget) processor ceiling used for the
	// per-chain desired thread counts (Allocation.ChainWant); 0 = Processors.
	// An admission controller sets Processors to the instantaneous budget
	// headroom so the initial allocation fits what is free right now, but
	// Machine to the whole budget, so a chain-boundary renegotiation can
	// still grow into budget freed after admission.
	Machine int
	// Readmit, when set, renegotiates the query's thread reservation at
	// the materialization points of a multi-chain execution: before each
	// chain starts, the engine calls Readmit with the chain index, the
	// chain's desired thread count (Allocation.ChainWant) and
	// the chain's pooled-node count (min — every pool runs at least one
	// thread and a store or sink none, so a grant below it cannot actually
	// be honored), and receives the granted total; the chain's pools are
	// resized over the grant (Allocation.ResizeChain). An admission
	// controller uses the hook to take back a finished chain's surplus
	// threads — or hand out freed budget — between chains
	// (runtime.Manager.Readmit). Readmit must never block on the budget:
	// a grant below the request is the correct answer when the machine is
	// busy. Ignored for single-chain plans and when Threads is set
	// explicitly (explicit requests are not adapted).
	Readmit func(chain, want, min int) int
	// MemoryBudget is the query's memory grant in bytes for blocking
	// operator state (join build sides, aggregate group tables, stage
	// stores). Exceeding it makes those operators spill to temp files under
	// SpillDir and continue — Grace-style recursive partitioning for hash
	// and temp-index joins, sorted-run merge for aggregates, run flushes
	// for stores. 0 = unlimited: everything stays in memory, the paper's
	// regime. An admission controller sets this to the bytes it actually
	// reserved (runtime.Manager.Admit).
	MemoryBudget int64
	// SpillDir is where spill temp files are created ("" = os.TempDir()).
	SpillDir string
	// Spill, when set, is the query's externally owned spill environment —
	// the facade's runtime.Begin creates one so it can renegotiate the
	// grant mid-query and report the spill totals. The engine then
	// ignores MemoryBudget/SpillDir and does NOT close the env. When nil
	// and MemoryBudget > 0 the engine creates and cleans up its own.
	Spill *storage.SpillEnv
	// StreamOutput names a store output to stream instead of materialize:
	// the store node's tuples are handed to Sink as its instances produce
	// them and never collected into Result.Outputs. The named output must
	// not be read by any other node of the plan (it is the query's final
	// result, not an intermediate materialization point). Empty = every
	// store materializes (the paper's model).
	StreamOutput string
	// Sink receives the StreamOutput tuples; required when StreamOutput is
	// set. Push is called concurrently from pool threads and may block —
	// bounded-sink backpressure suspends the producing threads. A Push
	// error aborts the execution.
	Sink RowSink
}

// RowSink consumes the tuples of a streamed store output as the engine
// produces them (see Options.StreamOutput).
type RowSink interface {
	// Push delivers one tuple; must be safe for concurrent use. Returning
	// an error aborts the execution (the cursor-close path).
	Push(t relation.Tuple) error
}

// RowBatchSink is an optional RowSink extension: a sink implementing it
// receives whole vectorized-path tuple runs in one PushBatch call (one sink
// synchronization per batch). The slice is engine-owned scratch — consume it
// before returning; the Tuples inside are immutable and may be retained.
type RowBatchSink interface {
	RowSink
	PushBatch(ts []relation.Tuple) error
}

// pushRuns returns the run-at-a-time form of s's Push: its PushBatch when it
// is a RowBatchSink, otherwise one loop over Push.
func pushRuns(s RowSink) func([]relation.Tuple) error {
	if bs, ok := s.(RowBatchSink); ok {
		return bs.PushBatch
	}
	return func(ts []relation.Tuple) error {
		for _, t := range ts {
			if err := s.Push(t); err != nil {
				return err
			}
		}
		return nil
	}
}

// DefaultBatchGrain is the producer-side route-buffer size used when
// Options.BatchGrain is zero: large enough to amortize the queue mutex and
// wake across a meaningful run of tuples, small enough that a buffered tuple
// never waits behind more than a cache line or two of peers.
const DefaultBatchGrain = 64

func (o Options) withDefaults() Options {
	if o.Processors <= 0 {
		o.Processors = runtime.GOMAXPROCS(0)
	}
	if o.CacheSize <= 0 {
		o.CacheSize = 64
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 256
	}
	if o.BatchGrain == 0 {
		o.BatchGrain = DefaultBatchGrain
	}
	if o.BatchGrain < 1 {
		o.BatchGrain = 1
	}
	// A route buffer deeper than the destination queue amortizes nothing
	// (PushBatch splits at queue capacity anyway), and the grain is also a
	// per-destination buffer *capacity*: clamp it.
	if o.BatchGrain > o.QueueCap {
		o.BatchGrain = o.QueueCap
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Result of an execution.
type Result struct {
	// Outputs holds every store node's materialization, by output name.
	Outputs map[string]*partition.Partitioned
	// Stats holds per-node scheduling counters, by node id.
	Stats map[int]*OpStats
	// Alloc is the thread allocation the scheduler chose.
	Alloc Allocation
}

// Relation flattens a named output into a relation.
func (r *Result) Relation(name string) (*relation.Relation, error) {
	p, ok := r.Outputs[name]
	if !ok {
		return nil, fmt.Errorf("core: no output %q", name)
	}
	return p.Union(), nil
}

// ExecuteContext runs a bound plan against a database under a context. When
// ctx is cancelled mid-execution the engine aborts every running operation:
// workers exit at their next acquire, producers blocked on full-queue
// backpressure are released, and the call returns ctx.Err() promptly without
// leaking goroutines.
func ExecuteContext(ctx context.Context, plan *lera.Plan, db DB, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	alloc, err := PlanAllocation(plan, db, opts)
	if err != nil {
		return nil, err
	}
	return ExecuteAllocated(ctx, plan, db, opts, alloc)
}

// PlanAllocation verifies the database against the plan and runs the
// four-step scheduler, returning the thread allocation ExecuteAllocated
// would use. It is EstimatePlan followed by Estimate.Allocate; an admission
// controller (internal/runtime.Manager) makes the two calls itself, the
// first before the query queues and the second at its admission point.
func PlanAllocation(plan *lera.Plan, db DB, opts Options) (Allocation, error) {
	est, err := EstimatePlan(plan, db, opts)
	if err != nil {
		return Allocation{}, err
	}
	return est.Allocate(opts), nil
}

// Estimate is everything allocation planning derives from the plan and the
// data alone — nothing in it depends on how busy the machine is, so it can
// be computed before a query waits for admission and stays valid however
// long the wait lasts.
type Estimate struct {
	// Mem is the estimated peak working-set bytes of the plan's blocking
	// operators and ChainMem its per-chain split; Allocate copies them into
	// Allocation.MemEstimate and Allocation.ChainMem.
	Mem      int64
	ChainMem []int64

	plan  *lera.Plan
	costs *lera.Costs
	skew  []float64 // by node id: see Allocate
}

// EstimatePlan verifies the database against the plan and costs it
// (lera.Estimate): plan complexities, each triggered node's instance-cost
// skew, and the per-chain byte roll-up. A streamed store accumulates
// nothing, so of opts it reads only StreamOutput.
func EstimatePlan(plan *lera.Plan, db DB, opts Options) (Estimate, error) {
	if err := checkDB(plan, db); err != nil {
		return Estimate{}, err
	}
	e := Estimate{plan: plan, costs: lera.Estimate(plan, lera.DefaultCostModel()), skew: make([]float64, len(plan.Nodes))}
	for _, id := range plan.Order {
		if plan.Graph.Triggered(id) {
			e.skew[id] = coefficientOfVariation(instanceCosts(plan, db, id))
		}
	}
	// Chains run one at a time, so the peak is the largest chain; a chain's
	// materialized output is priced into the chain that writes it.
	e.ChainMem = make([]int64, len(plan.Chains))
	for ci, chain := range plan.Chains {
		for _, id := range chain {
			if n := plan.Nodes[id].Node; n.Kind != lera.OpStore || n.As != opts.StreamOutput {
				e.ChainMem[ci] += e.costs.Bytes[id]
			}
		}
		e.Mem = max(e.Mem, e.ChainMem[ci])
	}
	return e, nil
}

// Allocate is the load-dependent half: the four-step scheduler over the
// estimate, under the utilization and processor headroom opts carries now.
// It is arithmetic over the plan's nodes — no I/O, no locks — which is why
// an admission controller may run it inside its critical section.
func (e Estimate) Allocate(opts Options) Allocation {
	alloc := Allocate(e.plan, e.costs, e.skew, opts)
	alloc.ChainMem, alloc.MemEstimate = e.ChainMem, e.Mem
	return alloc
}

// ExecuteAllocated runs a plan with a precomputed thread allocation (from
// PlanAllocation). opts should be the same options the allocation was
// computed with.
func ExecuteAllocated(ctx context.Context, plan *lera.Plan, db DB, opts Options, alloc Allocation) (*Result, error) {
	opts = opts.withDefaults()
	if err := checkDB(plan, db); err != nil {
		return nil, err
	}
	if err := checkStream(plan, opts); err != nil {
		return nil, err
	}
	// Larger-than-memory execution: with a memory grant and no externally
	// owned spill environment, create one for this query. The deferred
	// Close covers every exit path — success, error, cancellation — so an
	// aborted query never leaves spill temp files or open descriptors.
	if opts.Spill == nil && opts.MemoryBudget > 0 {
		env, _ := storage.NewSpillEnv(opts.SpillDir, opts.MemoryBudget, 0, nil) // never fails
		defer env.Close()
		opts.Spill = env
	}
	// Working copy: store outputs become visible to later chains.
	work := make(DB, len(db)+len(plan.Outputs))
	for k, v := range db {
		work[k] = v
	}

	res := &Result{
		Outputs: make(map[string]*partition.Partitioned),
		Stats:   make(map[int]*OpStats),
		Alloc:   alloc,
	}
	// Chains run one at a time in dependency order (the paper's
	// materialization points), each with the full thread count while it
	// runs. Mid-flight re-admission: before each chain of a multi-chain
	// plan, renegotiate the thread reservation for it and redistribute its
	// node threads over the grant. Explicit thread counts are never adapted.
	readmit := opts.Readmit
	if opts.Threads > 0 || len(plan.Chains) < 2 {
		readmit = nil
	}
	if readmit != nil {
		alloc = alloc.clone()
		res.Alloc = alloc
	}
	for ci, chain := range plan.Chains {
		if readmit != nil {
			if grant := readmit(ci, alloc.Want(ci), len(alloc.pools[ci])); grant != alloc.Chain[ci] {
				alloc.ResizeChain(ci, grant)
			}
		}
		// Checked after Readmit so a cancel that lands at the boundary
		// stops the query before any of the chain's operations exist.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := runChain(ctx, plan, chain, work, alloc, opts, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkStream validates the streaming options: the streamed output must be a
// terminal result, never an intermediate read back by another chain — a
// streamed store leaves nothing behind for a consumer to scan.
func checkStream(plan *lera.Plan, opts Options) error {
	if opts.StreamOutput == "" {
		return nil
	}
	if opts.Sink == nil {
		return fmt.Errorf("core: StreamOutput %q set without a Sink", opts.StreamOutput)
	}
	if _, ok := plan.Outputs[opts.StreamOutput]; !ok {
		return fmt.Errorf("core: StreamOutput %q is not a store output of the plan", opts.StreamOutput)
	}
	for _, bn := range plan.Nodes {
		n := bn.Node
		for _, rel := range []string{n.Rel, n.BuildRel, n.ProbeRel} {
			if rel == opts.StreamOutput {
				return fmt.Errorf("core: cannot stream output %q: node %s reads it", opts.StreamOutput, n.Name)
			}
		}
	}
	return nil
}

// checkDB verifies that the database provides what the plan was bound
// against.
func checkDB(plan *lera.Plan, db DB) error {
	for _, bn := range plan.Nodes {
		n := bn.Node
		for _, req := range []struct {
			name   string
			degree int
		}{
			{n.Rel, bn.Rel.Degree},
			{n.BuildRel, bn.Build.Degree},
			{n.ProbeRel, bn.Probe.Degree},
		} {
			if req.name == "" {
				continue
			}
			if _, isOutput := plan.Outputs[req.name]; isOutput {
				continue // produced during execution
			}
			p, ok := db[req.name]
			if !ok {
				return fmt.Errorf("core: plan needs relation %q, not in database", req.name)
			}
			if p.Degree() != req.degree {
				return fmt.Errorf("core: relation %q has degree %d, plan bound against %d", req.name, p.Degree(), req.degree)
			}
		}
	}
	return nil
}

// instanceCosts prices node id's instances (lera.BoundNode.InstanceCosts)
// from the fragment sizes db holds: before execution, those of the base
// relations — an earlier chain's output is not there yet.
func instanceCosts(plan *lera.Plan, db DB, id int) []float64 {
	sizes := func(rel string) []int {
		if p, ok := db[rel]; ok {
			return p.FragmentSizes()
		}
		return nil
	}
	n := plan.Nodes[id].Node
	return plan.Nodes[id].InstanceCosts(sizes(n.Rel), sizes(n.BuildRel), sizes(n.ProbeRel))
}

// runChain executes one pipeline chain to completion, reading its inputs
// from db and adding its materializations to db and res. Cancelling ctx
// aborts every operation in the chain: workers and blocked producers drain
// and the chain returns ctx.Err().
func runChain(ctx context.Context, plan *lera.Plan, chain []int, db DB, alloc Allocation, opts Options, res *Result) error {
	var pools []*Operation
	ops := make(map[int]*Operation, len(chain))
	terms := make(map[int]*terminal)
	for _, id := range chain {
		op, term, err := buildOperation(plan, id, db, alloc, opts)
		if err != nil {
			return err
		}
		if term != nil {
			terms[id] = term
			res.Stats[id] = term.stats
			continue
		}
		pools = append(pools, op)
		ops[id] = op
		res.Stats[id] = op.Stats()
	}

	// Wire emission routing and producer-completion countdowns. Routing is
	// declarative — a target list per producer — so each pool thread can put
	// a private route buffer between Emit and the destination queues
	// (routeEmitter): tuples travel in PushBatch lumps of opts.BatchGrain
	// while every counter downstream still sees individual activations.
	var wireMu sync.Mutex
	producers := make(map[int]int, len(chain)) // consumer id -> unfinished producer count
	targetsOf := make(map[int][]routeTarget, len(chain))
	for ei, be := range plan.Edges {
		e := plan.Graph.Edges[ei]
		if ops[e.From] == nil {
			continue // another chain's edge
		}
		producers[e.To]++
		tg := routeTarget{op: ops[e.To], term: terms[e.To], degree: plan.Nodes[e.To].Degree}
		switch e.Route {
		case lera.RouteSame:
			tg.same = true
		case lera.RouteHash:
			tg.router, tg.cols = plan.Nodes[e.To].Router, be.RouteColsIdx
		}
		targetsOf[e.From] = append(targetsOf[e.From], tg)
	}
	for _, op := range pools {
		op.targets = targetsOf[op.NodeID]
		op.batchGrain = opts.BatchGrain
		outs := plan.Graph.Out(op.NodeID)
		op.onComplete = func() {
			wireMu.Lock()
			var toClose []*Operation
			for _, e := range outs {
				producers[e.To]--
				if c := ops[e.To]; c != nil && producers[e.To] == 0 {
					toClose = append(toClose, c)
				}
			}
			wireMu.Unlock()
			for _, c := range toClose {
				for _, q := range c.Queues {
					q.Close()
				}
			}
		}
	}

	// Start pools, inject triggers, wait. Cancellation aborts every
	// operation so workers and blocked producers unwind; stopping the
	// AfterFunc once the chain completed keeps a later cancellation from
	// touching it.
	stop := context.AfterFunc(ctx, func() {
		for _, op := range pools {
			op.abort()
		}
	})
	var wg sync.WaitGroup
	for _, op := range pools {
		op.run(&wg)
	}
	for _, op := range pools {
		if op.triggered {
			op.InjectTriggers(opts.TriggerGrain)
		}
	}
	wg.Wait()
	stop()

	if err := ctx.Err(); err != nil {
		return err
	}
	for _, op := range pools {
		if err := op.Err(); err != nil {
			return err
		}
	}

	// Harvest spill counters into the per-node stats.
	for _, op := range pools {
		op.stats.noteSpill(op.op)
	}
	for _, term := range terms {
		term.stats.noteSpill(term.op)
	}

	// Collect materializations into the working database (a sink's tuples
	// went to Options.Sink).
	for id, term := range terms {
		store, ok := term.op.(*operator.Store)
		if !ok {
			continue
		}
		n := plan.Graph.Nodes[id]
		frags, err := store.Results(term.ctxs)
		if err != nil {
			return err
		}
		p, err := partition.FromFragments(n.As, plan.Nodes[id].InSchema, storeKey(plan, id), frags, 1)
		if err != nil {
			return err
		}
		db[n.As] = p
		res.Outputs[n.As] = p
	}
	return nil
}

// storeKey derives the partitioning key of a materialization from its
// incoming hash-routed edges (nil for RouteSame inputs).
func storeKey(plan *lera.Plan, id int) []string {
	for _, e := range plan.Graph.In(id) {
		if e.Route == lera.RouteHash {
			return append([]string(nil), e.RouteCols...)
		}
	}
	return nil
}

// buildOperation constructs the runtime operation of one node, including its
// operator, per-instance contexts and LPT estimates — or for a store or sink
// the terminal its producers run.
func buildOperation(plan *lera.Plan, id int, db DB, alloc Allocation, opts Options) (*Operation, *terminal, error) {
	bn := plan.Nodes[id]
	n := bn.Node
	degree := bn.Degree
	ctxs := make([]*operator.Context, degree)
	for i := range ctxs {
		ctxs[i] = &operator.Context{Instance: i}
	}

	var op operator.Operator
	switch n.Kind {
	case lera.OpFilter:
		op = &operator.Filter{Pred: bn.Pred}
	case lera.OpTransmit:
		op = &operator.Transmit{}
	case lera.OpJoin:
		op = &operator.Join{Algo: n.Algo, BuildKey: bn.BuildKeyIdx, ProbeKey: bn.ProbeKeyIdx, Spill: opts.Spill}
	case lera.OpMap:
		op = &operator.Map{Cols: bn.ColsIdx}
	case lera.OpAggregate:
		op = &operator.Aggregate{GroupBy: bn.GroupIdx, Kind: n.Agg, AggCol: bn.AggIdx, Spill: opts.Spill}
	case lera.OpStore:
		op = &operator.Store{Spill: opts.Spill}
		if n.As == opts.StreamOutput && opts.Sink != nil {
			op = &operator.Sink{Push: pushRuns(opts.Sink)}
		}
		term, err := newTerminal(op, ctxs)
		return nil, term, err
	default:
		return nil, nil, fmt.Errorf("core: unsupported node kind %v", n.Kind)
	}

	// Bind fragments into the instance contexts, keeping each operand's
	// fragment sizes for the LPT estimates below.
	var relSizes, buildSizes, probeSizes []int
	if n.Rel != "" {
		p := db[n.Rel]
		if p == nil {
			return nil, nil, fmt.Errorf("core: relation %q not materialized before node %s", n.Rel, n.Name)
		}
		for i := range ctxs {
			ctxs[i].Input = p.Fragments[i]
		}
		relSizes = p.FragmentSizes()
	}
	if n.BuildRel != "" {
		p := db[n.BuildRel]
		if p == nil {
			return nil, nil, fmt.Errorf("core: relation %q not materialized before node %s", n.BuildRel, n.Name)
		}
		for i := range ctxs {
			ctxs[i].Build = p.Fragments[i]
		}
		buildSizes = p.FragmentSizes()
	}
	if n.ProbeRel != "" {
		p := db[n.ProbeRel]
		if p == nil {
			return nil, nil, fmt.Errorf("core: relation %q not materialized before node %s", n.ProbeRel, n.Name)
		}
		for i := range ctxs {
			ctxs[i].Input = p.Fragments[i]
		}
		probeSizes = p.FragmentSizes()
	}

	o := newOperation(n.Name, id, op, ctxs, opts.QueueCap, alloc.Node[id], opts.CacheSize, alloc.Strategy[id], opts.Seed+int64(id)*7919, plan.Graph.Triggered(id))
	o.noVectorize = opts.NoVectorize

	// LPT cost estimates per queue: a triggered queue is ranked by its
	// instance's cost; a pipelined nested-loop probe's per-tuple cost is its
	// build fragment (a scan per probe).
	for i, c := range bn.InstanceCosts(relSizes, buildSizes, probeSizes) {
		switch {
		case plan.Graph.Triggered(id):
			o.Queues[i].SetEstimate(c)
		case n.Kind == lera.OpJoin && n.Algo == lera.NestedLoop:
			o.Queues[i].SetPerTupleCost(c)
		}
	}
	return o, nil, nil
}
