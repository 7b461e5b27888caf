// Package dbs3 is a Go reproduction of DBS3's adaptive parallel query
// execution model (Bouganim, Dageville, Valduriez: "Adaptive Parallel Query
// Execution in DBS3", EDBT 1996 / INRIA RR-2749).
//
// The library combines static hash partitioning of relations with dynamic
// allocation of worker threads to operations — the degree of parallelism is
// decoupled from the degree of partitioning — and balances load by letting
// every thread of an operation's pool consume activations from any of the
// operation's instance queues, preferring its own "main" queues and choosing
// among the others with a Random or LPT strategy.
//
// This package is the public facade: an in-memory database of partitioned
// relations, an ESQL-subset query interface, and execution knobs (threads,
// strategy, join algorithm). The building blocks live under internal/: the
// Lera-par plan layer, the parallel engine, the storage substrate, and the
// model of the paper (machine, cost model, analytical bounds and the
// virtual-time simulator that regenerates the figures). DESIGN.md documents
// the layering and lifecycles.
//
// Quickstart:
//
//	db := dbs3.New()
//	db.CreateWisconsin("wisc", 10000, 16, "unique2", 42)
//	rows, err := db.QueryContext(ctx, "SELECT unique2 FROM wisc WHERE unique1 < ?", nil, 100)
//	defer rows.Close()
//	for rows.Next() {
//		var u int64
//		rows.Scan(&u)
//	}
//
// # Prepared statements and streaming cursors
//
// Queries compile once and execute many times. Database.Prepare returns a
// *Stmt holding the bound parallel plan; Stmt.QueryContext reuses it against
// the current catalog, skipping lexing, parsing and planning entirely.
// WHERE comparisons accept `?` placeholders bound per execution
// (stmt.QueryContext(ctx, 42)), type-checked against the compared column,
// so one compiled plan serves a whole family of predicates. Ad-hoc
// QueryContext calls hit an internal LRU plan cache keyed on SQL text + join
// algorithm, so a serving workload that repeats statements gets the same
// amortization transparently (PlanCacheStats, and the manager's Stats,
// expose the hit/miss counters).
//
// Results stream: QueryContext returns a *Rows cursor whose rows arrive as
// the engine's final store node produces them, through a bounded sink that
// applies backpressure to the producing threads. Rows.All materializes the
// remainder for callers that want the whole table (see also
// QueryAllContext).
//
// # Concurrency & the QueryManager
//
// A Database is safe for concurrent use: queries may run while relations
// are being created, and many queries may run at once. By default each
// query schedules itself as if it owned the whole machine — fine for one
// query, wasteful for many. Installing a QueryManager turns the library
// into a concurrent query runtime with a machine-wide thread budget:
//
//	db.Manager(dbs3.ManagerConfig{Budget: 16})
//	rows, err := db.QueryContext(ctx, "SELECT ...", nil)
//
// The manager admits queries through a bounded two-class queue (interactive
// before batch, with aging — see Options.Priority), reserves each query's
// thread allocation against the shared budget before it starts, and —
// closing the paper's [Rahm93] loop — feeds each admitted query's scheduler
// a Utilization *measured* from the threads concurrent queries actually
// hold, smoothed by an EWMA over recently completed queries. QueryContext
// propagates cancellation into the engine, and closing a cursor mid-result
// does the same: the query drains its operation pools and its threads are
// back in the budget when Close returns.
//
// Allocations stay adaptive while a query runs: at each chain boundary of a
// multi-chain plan (Options.Materialize compiles one), the reservation is
// renegotiated against freshly measured load — a finished chain's surplus
// threads return to the budget mid-flight, and a later chain can grow into
// budget freed by completed peers (Footer.ChainThreads traces the grants).
//
// The serve-mode front end (internal/server, `dbs3 serve`) exposes all of
// the above over HTTP: streamed NDJSON results, server-side prepared
// statements with placeholder arguments, per-request admission priorities,
// and disconnect-as-cancellation. DESIGN.md documents the wire protocol.
package dbs3

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dbs3/internal/core"
	"dbs3/internal/lera"
	"dbs3/internal/partition"
	"dbs3/internal/relation"
	dbruntime "dbs3/internal/runtime"
	"dbs3/internal/workload"
)

// Database is an in-memory database of statically partitioned relations.
// It is safe for concurrent use by multiple goroutines: relation creation
// takes a write lock, queries snapshot the catalog under a read lock.
type Database struct {
	mu       sync.RWMutex
	rels     core.DB
	resolver lera.MapResolver
	manager  *dbruntime.Manager

	// cache is the LRU plan cache behind Prepare and ad-hoc queries; epoch
	// is the catalog version, bumped on DDL so stale plans miss.
	cache *planCache
	epoch atomic.Uint64
}

// New creates an empty database.
func New() *Database {
	return &Database{
		rels:     make(core.DB),
		resolver: make(lera.MapResolver),
		cache:    newPlanCache(planCacheCap),
	}
}

// ManagerConfig sizes the query manager installed by Database.Manager:
// the thread budget, the admission-queue bound and the working-memory
// budget, documented on the runtime's Config.
type ManagerConfig = dbruntime.Config

// Admission is what a QueryManager decided for one query — the utilization
// fed to the scheduler with its measured and smoothed parts, the headroom
// admitted into, the priority class and the memory grant — documented on the
// runtime's Decision. A query's Footer carries it.
type Admission = dbruntime.Decision

// Manager installs a QueryManager sized by cfg and returns it. Once
// installed, queries are admitted through it: concurrent queries share its
// thread budget and each one's scheduler sees the utilization measured from
// the others' allocated threads. Installing a new manager replaces the
// previous one for future queries.
func (db *Database) Manager(cfg ManagerConfig) *dbruntime.Manager {
	m := dbruntime.NewManager(cfg)
	db.mu.Lock()
	db.manager = m
	db.mu.Unlock()
	return m
}

// BufferPoolStats returns zeros. Spill runs are read once, in order,
// straight from their files, so there is no read-back cache to count;
// the method stays because the benchmark module under bench/ is built
// against it.
func (db *Database) BufferPoolStats() (hits, misses, resident int64) {
	return 0, 0, 0
}

// Relations returns the registered relation names, sorted.
func (db *Database) Relations() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.rels))
	for name := range db.rels {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// FragmentSizes returns a relation's per-fragment cardinalities — the
// distribution the skew experiments manipulate.
func (db *Database) FragmentSizes(name string) ([]int, error) {
	db.mu.RLock()
	p, ok := db.rels[name]
	db.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("dbs3: no relation %q", name)
	}
	return p.FragmentSizes(), nil
}

// placed is a relation ready to register and the function that placed it.
type placed struct {
	p    *partition.Partitioned
	part partition.Func
}

// register adds relations to the catalog all at once or, if any name is
// taken, not at all.
func (db *Database) register(rels ...placed) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, r := range rels {
		if _, dup := db.rels[r.p.Name]; dup {
			return fmt.Errorf("dbs3: relation %q already exists", r.p.Name)
		}
	}
	for _, r := range rels {
		db.rels[r.p.Name] = r.p
		db.resolver[r.p.Name] = lera.RelInfo{
			Schema:    r.p.Schema,
			Degree:    r.p.Degree(),
			FragSizes: r.p.FragmentSizes(),
			Part:      r.part,
		}
	}
	// DDL invalidates cached plans: they were bound against the old catalog.
	db.epoch.Add(1)
	return nil
}

// currentManager reads the installed manager under the read lock.
func (db *Database) currentManager() *dbruntime.Manager {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.manager
}

// snapshotRels copies the relation catalog (and reads the installed
// manager) under the read lock so an execution never races concurrent
// relation creation. The copy shares the immutable partitioned relations,
// so it is cheap — but it is still per-execution work, which is why the
// resolver (only needed at compile time) is snapshotted separately.
func (db *Database) snapshotRels() (core.DB, *dbruntime.Manager) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	rels := make(core.DB, len(db.rels))
	for k, v := range db.rels {
		rels[k] = v
	}
	return rels, db.manager
}

// snapshotResolver copies the binding resolver under the read lock for a
// compile that must not race relation creation.
func (db *Database) snapshotResolver() lera.MapResolver {
	db.mu.RLock()
	defer db.mu.RUnlock()
	resolver := make(lera.MapResolver, len(db.resolver))
	for k, v := range db.resolver {
		resolver[k] = v
	}
	return resolver
}

// CreateWisconsin generates a Wisconsin benchmark relation [Bitton83] of the
// given cardinality, hash-partitioned on key into degree fragments.
func (db *Database) CreateWisconsin(name string, cardinality, degree int, key string, seed int64) error {
	if cardinality <= 0 {
		return fmt.Errorf("dbs3: Wisconsin cardinality must be positive, got %d", cardinality)
	}
	schema := relation.WisconsinSchema
	h, err := partition.NewHash(schema, []string{key}, degree)
	if err != nil {
		return err
	}
	rows := relation.NewWisconsinRows(cardinality, seed)
	keyCol := schema.MustIndex(key)
	p, err := partition.Generate(name, schema, h, cardinality, cardinality*relation.WisconsinRowStringBytes,
		func(i int) relation.Value { return rows.Value(keyCol, i) }, rows.Fill)
	if err != nil {
		return err
	}
	return db.register(placed{p, h})
}

// CreateJoinPair generates the paper's experimental database (§5.4): three
// relations named <prefix>A, <prefix>B and <prefix>Br with schema (k INT,
// id INT, pad STRING). A holds aCard tuples with fragment cardinalities
// following Zipf(theta); B holds bCard tuples, uniform, co-partitioned with
// A on k; Br holds B's tuples placed on id instead, so joining it with A
// forces a run-time redistribution (the AssocJoin shape). bCard must be a
// multiple of degree. If any of the three names is taken, none is
// registered.
func (db *Database) CreateJoinPair(prefix string, aCard, bCard, degree int, theta float64) error {
	jdb, err := workload.NewJoinDB(aCard, bCard, degree, theta)
	if err != nil {
		return err
	}
	res := jdb.Resolver()
	rels := []placed{{jdb.A, res["A"].Part}, {jdb.B, res["B"].Part}, {jdb.Br, res["Br"].Part}}
	for _, r := range rels {
		r.p.Name = prefix + r.p.Name
	}
	return db.register(rels...)
}

// Options tune one query execution. The zero value lets the scheduler pick
// everything (step 1 of Figure 5 chooses the thread count from the query's
// complexity). The JSON names are the serve wire's request options.
type Options struct {
	// Threads fixes the query's total degree of parallelism (0 = auto).
	Threads int `json:"threads,omitempty"`
	// Strategy is the queue consumption strategy: "auto" (default),
	// "random" or "lpt".
	Strategy string `json:"strategy,omitempty"`
	// JoinAlgo selects the join implementation: "hash" (default) or
	// "nested-loop". "temp-index" — the paper's index built on the fly —
	// is accepted and selects the same hash index as "hash".
	JoinAlgo string `json:"join,omitempty"`
	// Grain splits each triggered instance's work into partial triggers of
	// at most this many tuples (0 = one trigger per fragment, the paper's
	// model). Finer grains defeat skew on triggered operations — the
	// paper's §6 future work.
	Grain int `json:"grain,omitempty"`
	// Utilization in [0, 1) tells the scheduler how busy the processors
	// already are; auto-chosen parallelism shrinks accordingly for
	// multi-user throughput [Rahm93].
	Utilization float64 `json:"utilization,omitempty"`
	// Priority is the admission class under a QueryManager: "interactive"
	// (default) is served ahead of "batch" at the admission queue, with
	// aging so batch is never starved. Ignored without a manager.
	Priority string `json:"priority,omitempty"`
	// Materialize inserts an explicit materialization point before the
	// aggregation/projection stage, splitting the plan into two pipeline
	// chains. The split costs an intermediate materialization but creates
	// the §3 chain boundary where a QueryManager renegotiates the query's
	// thread reservation mid-flight: the first chain's surplus threads
	// return to the shared budget before the second chain starts (or the
	// second grows into freed budget), visible as Readmissions /
	// ThreadsReturnedEarly in the manager Stats and as the per-chain trace
	// in Footer.ChainThreads. Plans with an explicit Threads setting keep
	// their allocation through both chains.
	Materialize bool `json:"materialize,omitempty"`
	// MemoryBudget caps the query's blocking-operator working memory in
	// bytes: join build sides, aggregate group tables and stage stores
	// share the budget through an accountant and spill to disk (Grace
	// partitioning for joins, sorted runs for aggregates and stores) when
	// they exceed it, so results are identical either way. Under a
	// QueryManager with a machine-wide MemoryBudget this is a ceiling on
	// the admission grant; without one it bounds the query directly. 0 =
	// unlimited (never spill); negative values are rejected.
	MemoryBudget int64 `json:"memoryBudget,omitempty"`
	// SpillDir is the directory for spill temp files ("" = os.TempDir()).
	// Files are created unlinked-on-close and removed on every exit path,
	// including cancellation. It is the serving machine's to choose, so it
	// has no wire name: a request that names it is rejected.
	SpillDir string `json:"-"`
}

// validate rejects option values with no meaningful interpretation. Named
// enum fields have their own accessors (strategy, joinAlgo, priority); this
// covers the numeric knobs where a silent clamp would hide a caller bug.
func (o *Options) validate() error {
	if o == nil {
		return nil
	}
	if o.MemoryBudget < 0 {
		return fmt.Errorf("dbs3: MemoryBudget %d is negative (0 = unlimited)", o.MemoryBudget)
	}
	return nil
}

func (o *Options) strategy() (core.StrategyKind, error) {
	if o == nil {
		return core.StrategyAuto, nil
	}
	switch o.Strategy {
	case "", "auto":
		return core.StrategyAuto, nil
	case "random":
		return core.StrategyRandom, nil
	case "lpt":
		return core.StrategyLPT, nil
	default:
		return 0, fmt.Errorf("dbs3: unknown strategy %q (auto, random, lpt)", o.Strategy)
	}
}

func (o *Options) joinAlgo() (lera.JoinAlgo, error) {
	if o == nil {
		return lera.HashJoin, nil
	}
	switch o.JoinAlgo {
	case "", "hash":
		return lera.HashJoin, nil
	case "nested-loop":
		return lera.NestedLoop, nil
	case "temp-index":
		return lera.TempIndex, nil
	default:
		return 0, fmt.Errorf("dbs3: unknown join algorithm %q (hash, nested-loop, temp-index)", o.JoinAlgo)
	}
}

func (o *Options) priority() (dbruntime.Priority, error) {
	if o == nil {
		return dbruntime.PriorityInteractive, nil
	}
	switch o.Priority {
	case "", "interactive":
		return dbruntime.PriorityInteractive, nil
	case "batch":
		return dbruntime.PriorityBatch, nil
	default:
		return 0, fmt.Errorf("dbs3: unknown priority %q (interactive, batch)", o.Priority)
	}
}

// OperatorStats summarizes one operator's execution. The JSON tags are the
// serve-mode wire form (the footer of a streamed result).
type OperatorStats struct {
	// Name is the plan node name (filter, join, store, ...).
	Name string `json:"name"`
	// Threads is the pool size the scheduler allocated.
	Threads int `json:"threads"`
	// Strategy is the consumption strategy used.
	Strategy string `json:"strategy"`
	// Instances is the operator's degree (one per fragment).
	Instances int `json:"instances"`
	// Activations, Emitted and SecondaryPicks count processed units of
	// work, produced tuples, and consumptions stolen from non-main queues.
	Activations    int64 `json:"activations"`
	Emitted        int64 `json:"emitted"`
	SecondaryPicks int64 `json:"secondaryPicks"`
	// SpilledBytes and SpillPasses record the operator's larger-than-memory
	// activity under a memory budget: bytes written to spill runs and
	// partition/merge passes taken. Zero (and omitted on the wire) for
	// operators that fit their grant.
	SpilledBytes int64 `json:"spilledBytes,omitempty"`
	SpillPasses  int64 `json:"spillPasses,omitempty"`
}

// Footer is a query's execution record: what the scheduler decided and what
// each operator did. One type serves every hop — a cursor's Footer, a
// Result, the serve-mode wire footer (the JSON tags) and a cluster
// coordinator's footer, which nests each shard's record under Nodes.
type Footer struct {
	// RowCount is the number of rows the result delivered.
	RowCount int64 `json:"rowCount"`
	// Threads is the total degree of parallelism: the goroutines the
	// scheduler allocated, or for a coordinator the sum over Nodes.
	Threads int `json:"threads"`
	// Admission is what the QueryManager decided when it admitted the
	// query; nil for an unmanaged database and for a coordinator, whose
	// Nodes carry their own.
	Admission *Admission `json:"admission,omitempty"`
	// ChainThreads is the per-chain renegotiated thread trace of a managed
	// multi-chain query: the totals granted at each materialization point,
	// in chain order (see Options.Materialize). Empty for single-chain
	// statements, explicit-thread executions and unmanaged databases.
	ChainThreads []int           `json:"chainThreads,omitempty"`
	Operators    []OperatorStats `json:"operators,omitempty"`
	// SpilledBytes and SpillPasses total the query's larger-than-memory
	// activity under a memory budget (for a coordinator, the sums over
	// Nodes); zero, and absent on the wire, when nothing spilled.
	SpilledBytes int64 `json:"spilledBytes,omitempty"`
	SpillPasses  int64 `json:"spillPasses,omitempty"`
	// Nodes holds a coordinator's per-shard records in fan-out order; a
	// stacked coordinator's shards carry their own Nodes.
	Nodes []NodeFooter `json:"nodes,omitempty"`
}

// NodeFooter is one shard's record in a coordinator's Footer, as the shard
// reported it.
type NodeFooter struct {
	// Node is the replica that completed the shard's subquery — after a
	// mid-stream failover, the sibling that finished, not the one that died.
	Node string `json:"node"`
	Footer
	// Rows is RowCount (the shard's pre-merge row count) in a footer the
	// coordinator built; it does not travel on the wire. It stays because
	// the benchmark module reads it.
	Rows int64 `json:"-"`
}

// String renders the row-count/thread line, the admission decision, the
// per-chain renegotiated thread trace of a multi-chain query, the
// per-operator scheduling counters and the spill totals — the footer cmd/dbs3
// and Result.String print.
func (f Footer) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "(%d rows, %d threads)\n", f.RowCount, f.Threads)
	if a := f.Admission; a != nil {
		fmt.Fprintf(&b, "  admission: %s, utilization %.2f (measured %.2f, smoothed %.2f), %d threads free, memory grant %dB\n",
			a.Priority, a.Utilization, a.Measured, a.Smoothed, a.Available, a.MemoryGrant)
	}
	if len(f.ChainThreads) > 1 {
		fmt.Fprintf(&b, "  chain threads (readmitted at each boundary): %v\n", f.ChainThreads)
	}
	for _, op := range f.Operators {
		fmt.Fprintf(&b, "  %-12s threads=%-3d strategy=%-6s instances=%-5d activations=%-8d emitted=%-8d secondary=%d",
			op.Name, op.Threads, op.Strategy, op.Instances, op.Activations, op.Emitted, op.SecondaryPicks)
		if op.SpilledBytes > 0 || op.SpillPasses > 0 {
			fmt.Fprintf(&b, " spilled=%dB passes=%d", op.SpilledBytes, op.SpillPasses)
		}
		b.WriteByte('\n')
	}
	if f.SpilledBytes > 0 || f.SpillPasses > 0 {
		fmt.Fprintf(&b, "  spill: %d bytes over %d pass(es) — working memory exceeded the grant; results are unaffected\n", f.SpilledBytes, f.SpillPasses)
	}
	return b.String()
}

// QueryContext compiles (or reuses a cached plan for) and executes one ESQL
// statement under a context, returning a streaming cursor. The supported
// subset:
//
//	SELECT */cols/agg FROM rel
//	  [JOIN rel2 ON rel.col = rel2.col]
//	  [WHERE predicate]
//	  [GROUP BY cols]
//
// WHERE comparisons may use `?` placeholders; args supplies their values in
// order (integers or strings, type-checked against the compared column).
// Rows arrive through Rows.Next before the result is complete: drain or
// Close the cursor, since an abandoned one pins its query's threads on sink
// backpressure. Cancelling ctx or closing the cursor aborts the running
// operations, which free their threads promptly. Under a QueryManager the
// query is admitted through it (under Options.Priority) and its reservation
// returns to the budget the moment the execution ends.
//
// Compilation goes through the database's LRU plan cache, so a repeated
// statement (same SQL and join algorithm) skips lexing, parsing and
// planning; use Prepare to hold the compiled plan. A placeholder statement
// is one cached plan however its arguments vary.
func (db *Database) QueryContext(ctx context.Context, sql string, opt *Options, args ...any) (*Rows, error) {
	stmt, err := db.Prepare(sql, opt)
	if err != nil {
		return nil, err
	}
	return stmt.QueryContext(ctx, args...)
}

// QueryAllContext is the materialized convenience path: it runs
// QueryContext and drains the cursor into a Result. Prefer the cursor for
// large results; QueryAllContext holds the whole table in memory.
func (db *Database) QueryAllContext(ctx context.Context, sql string, opt *Options, args ...any) (*Result, error) {
	rows, err := db.QueryContext(ctx, sql, opt, args...)
	if err != nil {
		return nil, err
	}
	return rows.All()
}

// ExplainContext compiles a statement and returns its parallel plan in
// Graphviz DOT form (the Lera-par "simple view" of Figure 1), footed by the
// per-chain allocation split: each pipeline chain's nodes, its planned
// thread total and the desired total it renegotiates for at its
// materialization point under a QueryManager. Compilation is quick, so the
// context is checked once for early cancellation. It shares the plan cache
// and the option checks with QueryContext and Prepare, and prices the plan
// under the options the statement would execute with.
func (db *Database) ExplainContext(ctx context.Context, sql string, opt *Options) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	stmt, err := db.Prepare(sql, opt)
	if err != nil {
		return "", err
	}
	prep := stmt.prep.Load()
	return prep.graph.Dot() + db.explainChains(prep.plan, stmt.engineOptions()), nil
}

// explainChains renders the per-chain allocation split as DOT comment lines:
// what the scheduler would allocate against the current catalog under the
// statement's execution options, and — for multi-chain plans — the
// per-chain desired totals a manager renegotiates at each materialization
// point. Allocation is advisory here; a plan that cannot be costed (for
// example against a relation dropped since compile) yields no footer rather
// than an error.
func (db *Database) explainChains(plan *lera.Plan, copts core.Options) string {
	rels, manager := db.snapshotRels()
	if manager != nil {
		copts.Processors = manager.Budget()
		copts.Machine = manager.Budget()
	}
	alloc, err := core.PlanAllocation(plan, rels, copts)
	if err != nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "// allocation: %d threads over %d chain(s)\n", alloc.Total, len(plan.Chains))
	for ci, chain := range plan.Chains {
		names := make([]string, len(chain))
		for i, id := range chain {
			names[i] = plan.Graph.Nodes[id].Name
		}
		fmt.Fprintf(&b, "// chain %d: threads=%d want=%d nodes=%s\n", ci, alloc.Chain[ci], alloc.Want(ci), strings.Join(names, " -> "))
	}
	if alloc.MemEstimate > 0 {
		fmt.Fprintf(&b, "// memory estimate: %d bytes peak (per chain: %v); operators spill to disk beyond the admitted grant\n", alloc.MemEstimate, alloc.ChainMem)
	}
	if len(plan.Chains) > 1 {
		b.WriteString("// multi-chain plan: a QueryManager renegotiates the reservation at each chain boundary (want, throttled by live utilization)\n")
	}
	return b.String()
}
