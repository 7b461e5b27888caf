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
// Lera-par plan layer, the parallel engine, the storage substrate, the
// analytical model and the virtual-time simulator that regenerates the
// paper's figures. DESIGN.md documents the layering and lifecycles.
//
// Quickstart:
//
//	db := dbs3.New()
//	db.CreateWisconsin("wisc", 10000, 16, "unique2", 42)
//	rows, err := db.Query("SELECT unique2 FROM wisc WHERE unique1 < 100", nil)
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
// (stmt.Query(42)), type-checked against the compared column, so one
// compiled plan serves a whole family of predicates. Ad-hoc
// Query/QueryContext calls hit an internal LRU plan cache keyed on
// SQL text + join algorithm, so a serving workload that repeats statements
// gets the same amortization transparently (PlanCacheStats, and the
// manager's Stats, expose the hit/miss counters).
//
// Results stream: QueryContext returns a *Rows cursor whose rows arrive as
// the engine's final store node produces them, through a bounded sink that
// applies backpressure to the producing threads. Rows.All materializes the
// remainder for callers that want the whole table (see also QueryAll).
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
// budget freed by completed peers (Rows.ChainThreads traces the grants).
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
	"dbs3/internal/storage"
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

	// poolMetrics aggregates spill buffer-pool hit/miss/resident counters
	// across every query the facade runs (see BufferPoolStats).
	poolMetrics storage.PoolMetrics
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

// Manager installs a QueryManager sized by cfg and returns it. Once
// installed, Query and QueryContext are admitted through it: concurrent
// queries share its thread budget and each one's scheduler sees the
// utilization measured from the others' allocated threads. Installing a
// new manager replaces the previous one for future queries.
func (db *Database) Manager(cfg ManagerConfig) *dbruntime.Manager {
	m := dbruntime.NewManager(cfg)
	db.mu.Lock()
	db.manager = m
	db.mu.Unlock()
	return m
}

// BufferPoolStats reports the spill buffer-pool counters aggregated across
// every query this database ran under a memory budget: read-back page hits
// (including waits on a fetch already in flight), misses that went to disk,
// and the pages currently resident. All zero until a query spills.
func (db *Database) BufferPoolStats() (hits, misses, resident int64) {
	return db.poolMetrics.Snapshot()
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

// Cardinality returns a relation's tuple count.
func (db *Database) Cardinality(name string) (int, error) {
	db.mu.RLock()
	p, ok := db.rels[name]
	db.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("dbs3: no relation %q", name)
	}
	return p.Cardinality(), nil
}

// Degree returns a relation's degree of partitioning.
func (db *Database) Degree(name string) (int, error) {
	db.mu.RLock()
	p, ok := db.rels[name]
	db.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("dbs3: no relation %q", name)
	}
	return p.Degree(), nil
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

func (db *Database) register(p *partition.Partitioned, part partition.Func) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.rels[p.Name]; dup {
		return fmt.Errorf("dbs3: relation %q already exists", p.Name)
	}
	db.rels[p.Name] = p
	db.resolver[p.Name] = lera.RelInfo{
		Schema:    p.Schema,
		Degree:    p.Degree(),
		FragSizes: p.FragmentSizes(),
		Part:      part,
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
	schema := relation.WisconsinSchema
	h, err := partition.NewHash(schema, []string{key}, degree)
	if err != nil {
		return err
	}
	rows := relation.NewWisconsinRows(cardinality, seed)
	keyCol := schema.MustIndex(key)
	p, err := partition.Generate(name, schema, h, 1, cardinality, cardinality*relation.WisconsinRowStringBytes,
		func(i int) relation.Value { return rows.Value(keyCol, i) }, rows.Row)
	if err != nil {
		return err
	}
	return db.register(p, h)
}

// CreateJoinPair generates the paper's experimental database (§5.4): three
// relations named <prefix>A, <prefix>B and <prefix>Br with schema (k INT,
// id INT, pad STRING). A holds aCard tuples with fragment cardinalities
// following Zipf(theta); B holds bCard tuples, uniform, co-partitioned with
// A on k; Br holds B's tuples placed on id instead, so joining it with A
// forces a run-time redistribution (the AssocJoin shape). bCard must be a
// multiple of degree.
func (db *Database) CreateJoinPair(prefix string, aCard, bCard, degree int, theta float64) error {
	jdb, err := workload.NewJoinDB(aCard, bCard, degree, theta)
	if err != nil {
		return err
	}
	res := jdb.Resolver()
	for _, item := range []struct {
		suffix string
		p      *partition.Partitioned
		orig   string
	}{
		{"A", jdb.A, "A"},
		{"B", jdb.B, "B"},
		{"Br", jdb.Br, "Br"},
	} {
		ri, err := res.RelInfo(item.orig)
		if err != nil {
			return err
		}
		p := item.p
		p.Name = prefix + item.suffix
		if err := db.register(p, ri.Part); err != nil {
			return err
		}
	}
	return nil
}

// Options tune one query execution. The zero value lets the scheduler pick
// everything (step 1 of Figure 5 chooses the thread count from the query's
// complexity).
type Options struct {
	// Threads fixes the query's total degree of parallelism (0 = auto).
	Threads int
	// Strategy is the queue consumption strategy: "auto" (default),
	// "random" or "lpt".
	Strategy string
	// JoinAlgo selects the join implementation: "hash" (default),
	// "nested-loop" or "temp-index".
	JoinAlgo string
	// Grain splits each triggered instance's work into partial triggers of
	// at most this many tuples (0 = one trigger per fragment, the paper's
	// model). Finer grains defeat skew on triggered operations — the
	// paper's §6 future work.
	Grain int
	// Utilization in [0, 1) tells the scheduler how busy the processors
	// already are; auto-chosen parallelism shrinks accordingly for
	// multi-user throughput [Rahm93].
	Utilization float64
	// Priority is the admission class under a QueryManager: "interactive"
	// (default) is served ahead of "batch" at the admission queue, with
	// aging so batch is never starved. Ignored without a manager.
	Priority string
	// Materialize inserts an explicit materialization point before the
	// aggregation/projection stage, splitting the plan into two pipeline
	// chains. The split costs an intermediate materialization but creates
	// the §3 chain boundary where a QueryManager renegotiates the query's
	// thread reservation mid-flight: the first chain's surplus threads
	// return to the shared budget before the second chain starts (or the
	// second grows into freed budget), visible as Readmissions /
	// ThreadsReturnedEarly in the manager Stats and as the per-chain trace
	// in Rows.ChainThreads. Plans with an explicit Threads setting keep
	// their allocation through both chains.
	Materialize bool
	// StreamBuffer is the bounded row-sink capacity between the engine and
	// the Rows cursor (0 = a small default). Smaller values bound result
	// memory tighter and apply backpressure sooner; larger values decouple
	// producer and consumer more.
	StreamBuffer int
	// MemoryBudget caps the query's blocking-operator working memory in
	// bytes: join build sides, aggregate group tables and stage stores
	// share the budget through an accountant and spill to disk (Grace
	// partitioning for joins, sorted runs for aggregates and stores) when
	// they exceed it, so results are identical either way. Under a
	// QueryManager with a machine-wide MemoryBudget this is a ceiling on
	// the admission grant; without one it bounds the query directly. 0 =
	// unlimited (never spill); negative values are rejected.
	MemoryBudget int64
	// SpillDir is the directory for spill temp files ("" = os.TempDir()).
	// Files are created unlinked-on-close and removed on every exit path,
	// including cancellation.
	SpillDir string
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

// Query compiles (or reuses a cached plan for) and executes one ESQL
// statement with a background context, returning a streaming cursor. The
// supported subset:
//
//	SELECT */cols/agg FROM rel
//	  [JOIN rel2 ON rel.col = rel2.col]
//	  [WHERE predicate]
//	  [GROUP BY cols]
//
// WHERE comparisons may use `?` placeholders instead of literals; args
// supplies their values in order (integers or strings, type-checked against
// the compared column). Close the returned cursor (or drain it) — an
// abandoned open cursor pins its query's threads on sink backpressure.
func (db *Database) Query(sql string, opt *Options, args ...any) (*Rows, error) {
	//dbs3lint:ignore ctxflow documented ctx-less convenience shim over QueryContext
	return db.QueryContext(context.Background(), sql, opt, args...)
}

// QueryContext executes one ESQL statement under a context and returns a
// streaming cursor: rows arrive through Rows.Next as the engine produces
// them, before the result is complete. Cancelling ctx — or closing the
// cursor — aborts the running operations, which drain and free their
// threads promptly. When a QueryManager is installed the query is admitted
// through it (under Options.Priority) and executes under the shared thread
// budget; the reservation returns to the budget the moment the execution
// ends, including a mid-result Close.
//
// Compilation goes through the database's LRU plan cache, so a repeated
// statement (same SQL and join algorithm) skips lexing, parsing and
// planning; use Prepare to hold the compiled plan explicitly. Placeholder
// statements cache once and re-bind per call: "... WHERE a < ?" executed
// with different args is one cached plan, not many.
func (db *Database) QueryContext(ctx context.Context, sql string, opt *Options, args ...any) (*Rows, error) {
	stmt, err := db.Prepare(sql, opt)
	if err != nil {
		return nil, err
	}
	return stmt.QueryContext(ctx, args...)
}

// QueryAll is the materialized convenience path — the pre-cursor API shape:
// it runs QueryContext and drains the cursor into a Result. Prefer the
// cursor for large results; QueryAll holds the whole table in memory.
func (db *Database) QueryAll(sql string, opt *Options, args ...any) (*Result, error) {
	//dbs3lint:ignore ctxflow documented ctx-less convenience shim over QueryAllContext
	return db.QueryAllContext(context.Background(), sql, opt, args...)
}

// QueryAllContext is QueryAll under a context.
func (db *Database) QueryAllContext(ctx context.Context, sql string, opt *Options, args ...any) (*Result, error) {
	rows, err := db.QueryContext(ctx, sql, opt, args...)
	if err != nil {
		return nil, err
	}
	return rows.All()
}

// Explain compiles a statement and returns its parallel plan in Graphviz DOT
// form (the Lera-par "simple view" of Figure 1), footed by the per-chain
// allocation split: each pipeline chain's nodes, its planned thread total
// and the desired total it renegotiates for at its materialization point
// under a QueryManager.
func (db *Database) Explain(sql string, opt *Options) (string, error) {
	//dbs3lint:ignore ctxflow documented ctx-less convenience shim over ExplainContext
	return db.ExplainContext(context.Background(), sql, opt)
}

// ExplainContext is Explain under a context (compilation is quick; the
// context is checked once for early cancellation). It shares the plan cache
// with Query and Prepare.
func (db *Database) ExplainContext(ctx context.Context, sql string, opt *Options) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	prep, err := db.prepare(sql, opt)
	if err != nil {
		return "", err
	}
	return prep.graph.Dot() + db.explainChains(prep.plan, opt), nil
}

// explainChains renders the per-chain allocation split as DOT comment lines:
// what the scheduler would allocate against the current catalog, and — for
// multi-chain plans — the per-chain desired totals a manager renegotiates at
// each materialization point. Allocation is advisory here; a plan that
// cannot be costed (for example against a relation dropped since compile)
// yields no footer rather than an error.
func (db *Database) explainChains(plan *lera.Plan, opt *Options) string {
	copts := core.Options{}
	if opt != nil {
		copts.Threads = opt.Threads
		copts.Utilization = opt.Utilization
	}
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
