package dbs3

import (
	"container/list"
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"dbs3/internal/core"
	"dbs3/internal/esql"
	"dbs3/internal/lera"
	"dbs3/internal/relation"
	dbruntime "dbs3/internal/runtime"
)

// planCacheCap bounds the per-database LRU plan cache. Serving workloads
// repeat a small statement vocabulary; 128 distinct (SQL, join algo) shapes
// is far beyond what one front end issues.
const planCacheCap = 128

// streamBuffer is the bounded row-sink capacity, in rows, between the
// engine's final store node and a Rows cursor: enough to decouple producer
// and consumer across a batch, small enough that a slow reader applies
// backpressure to the producing threads before result memory grows.
const streamBuffer = 64

// preparedPlan is one compiled statement: the bound Lera-par plan, the graph
// for EXPLAIN, the result column names and types (known statically from the
// store node's input schema), and the `?` placeholder count. It is immutable
// after compilation — executions only read it (placeholder arguments are
// substituted into a per-execution shallow copy of the plan) — which is what
// makes a Stmt safe for concurrent reuse.
type preparedPlan struct {
	plan   *lera.Plan
	graph  *lera.Graph
	cols   []string
	types  []string
	params int
	epoch  uint64
}

// planCache is an LRU of compiled statements keyed on SQL + join algorithm.
// Entries are tagged with the catalog epoch at compile time; DDL (relation
// creation) bumps the epoch, so stale plans miss and recompile against the
// new catalog instead of serving pre-DDL bindings. Today's DDL is purely
// additive — an existing plan cannot actually go stale — but the blanket
// bump keeps the invalidation contract ahead of destructive DDL
// (DROP/ALTER, repartitioning) rather than auditing every future catalog
// mutation for cache safety; the cost is a recompile per cached statement
// after a load, visible as a miss spike in PlanCacheStats.
type planCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used; values are *cacheItem
	entries map[string]*list.Element

	hits, misses atomic.Int64
}

type cacheItem struct {
	key string
	p   *preparedPlan
}

func newPlanCache(capacity int) *planCache {
	return &planCache{cap: capacity, ll: list.New(), entries: make(map[string]*list.Element)}
}

// get returns the cached plan for key if it exists and was compiled at the
// current catalog epoch.
func (c *planCache) get(key string, epoch uint64) (*preparedPlan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	item := el.Value.(*cacheItem)
	if item.p.epoch != epoch {
		// Stale: compiled against a pre-DDL catalog.
		c.ll.Remove(el)
		delete(c.entries, key)
		c.misses.Add(1)
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Add(1)
	return item.p, true
}

// put inserts a compiled plan, evicting the least recently used entry beyond
// capacity.
func (c *planCache) put(key string, p *preparedPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// A compile that raced with DDL must not clobber a fresher entry:
		// keep whichever plan was compiled at the newer catalog epoch.
		if item := el.Value.(*cacheItem); item.p.epoch <= p.epoch {
			item.p = p
		}
		c.ll.MoveToFront(el)
		return
	}
	c.entries[key] = c.ll.PushFront(&cacheItem{key: key, p: p})
	for c.ll.Len() > c.cap {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.entries, el.Value.(*cacheItem).key)
	}
}

// PlanCacheStats reports the database's plan-cache hit/miss counters. When a
// QueryManager is installed the same counters are mirrored into its Stats.
func (db *Database) PlanCacheStats() (hits, misses int64) {
	return db.cache.hits.Load(), db.cache.misses.Load()
}

// Stmt is a prepared statement: one compilation (lex, parse, plan, bind)
// reused across many executions — the compile-once / execute-many half of
// the serving-scale API. A Stmt is safe for concurrent use by multiple
// goroutines; each QueryContext executes against the catalog snapshot and
// manager installed at call time.
type Stmt struct {
	db  *Database
	sql string
	opt Options
	// prep is the compiled plan, swapped atomically when a catalog-epoch
	// change forces revalidation (see QueryContext).
	prep atomic.Pointer[preparedPlan]

	strat core.StrategyKind
	pri   dbruntime.Priority
}

// Prepare compiles one ESQL statement into a reusable bound plan. The
// Options are captured as the statement's execution defaults (thread count,
// strategy, join algorithm, grain, priority); the join algorithm also shapes
// the plan itself and keys the underlying plan cache. Repeated Prepare calls
// for the same SQL and join algorithm share the compiled plan.
func (db *Database) Prepare(sql string, opt *Options) (*Stmt, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	strat, err := opt.strategy()
	if err != nil {
		return nil, err
	}
	pri, err := opt.priority()
	if err != nil {
		return nil, err
	}
	prep, err := db.prepare(sql, opt)
	if err != nil {
		return nil, err
	}
	s := &Stmt{db: db, sql: sql, strat: strat, pri: pri}
	s.prep.Store(prep)
	if opt != nil {
		s.opt = *opt
	}
	return s, nil
}

// prepare resolves a statement through the plan cache, compiling on miss.
func (db *Database) prepare(sql string, opt *Options) (*preparedPlan, error) {
	algo, err := opt.joinAlgo()
	if err != nil {
		return nil, err
	}
	materialize := opt != nil && opt.Materialize
	key := fmt.Sprintf("%s\x00%d\x00%t", sql, algo, materialize)
	epoch := db.epoch.Load()
	prep, hit := db.cache.get(key, epoch)
	if m := db.currentManager(); m != nil {
		m.NotePlanCache(hit)
	}
	if hit {
		return prep, nil
	}
	c := &esql.Compiler{Resolver: db.snapshotResolver(), JoinAlgo: algo, Materialize: materialize}
	plan, g, err := c.Compile(sql)
	if err != nil {
		return nil, err
	}
	cols, types := outputColumns(plan)
	prep = &preparedPlan{plan: plan, graph: g, cols: cols, types: types, params: plan.NumParams(), epoch: epoch}
	db.cache.put(key, prep)
	return prep, nil
}

// outputColumns reads the result column names and types off the final store
// node's input schema — available at compile time, before any row is
// produced. Types use the SQL-ish names ("INT", "STRING") so they can cross
// a wire protocol verbatim.
func outputColumns(plan *lera.Plan) (cols, types []string) {
	id, ok := plan.Outputs[esql.OutputName]
	if !ok {
		return nil, nil
	}
	schema := plan.Nodes[id].InSchema
	cols = make([]string, schema.Len())
	types = make([]string, schema.Len())
	for i := range cols {
		cols[i] = schema.Column(i).Name
		types[i] = schema.Column(i).Type.String()
	}
	return cols, types
}

// bindArgs converts caller-supplied placeholder arguments to engine values.
// The engine's type system is INT and STRING; every Go integer kind maps to
// INT (unsigned values must fit int64), strings map to STRING.
func bindArgs(args []any) ([]relation.Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	vals := make([]relation.Value, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case int:
			vals[i] = relation.Int(int64(v))
		case int8:
			vals[i] = relation.Int(int64(v))
		case int16:
			vals[i] = relation.Int(int64(v))
		case int32:
			vals[i] = relation.Int(int64(v))
		case int64:
			vals[i] = relation.Int(v)
		case uint:
			if uint64(v) > math.MaxInt64 {
				return nil, fmt.Errorf("dbs3: argument %d overflows INT", i+1)
			}
			vals[i] = relation.Int(int64(v))
		case uint8:
			vals[i] = relation.Int(int64(v))
		case uint16:
			vals[i] = relation.Int(int64(v))
		case uint32:
			vals[i] = relation.Int(int64(v))
		case uint64:
			if v > math.MaxInt64 {
				return nil, fmt.Errorf("dbs3: argument %d overflows INT", i+1)
			}
			vals[i] = relation.Int(int64(v))
		case string:
			vals[i] = relation.Str(v)
		default:
			return nil, fmt.Errorf("dbs3: unsupported argument %d type %T (want an integer or string)", i+1, a)
		}
	}
	return vals, nil
}

// SQL returns the statement's source text.
func (s *Stmt) SQL() string { return s.sql }

// Columns names the result columns the statement produces.
func (s *Stmt) Columns() []string { return append([]string(nil), s.prep.Load().cols...) }

// ColumnTypes reports the result column types ("INT" or "STRING"), aligned
// with Columns — the static half of a wire protocol's row encoding.
func (s *Stmt) ColumnTypes() []string { return append([]string(nil), s.prep.Load().types...) }

// NumParams reports how many `?` placeholder arguments each execution must
// supply.
func (s *Stmt) NumParams() int { return s.prep.Load().params }

// Close releases the statement. The compiled plan stays in the database's
// plan cache for future statements; Close exists for API symmetry and
// forward compatibility.
func (s *Stmt) Close() error { return nil }

// engineOptions is what the engine executes the statement under, less the
// sink a cursor adds: EXPLAIN prices the plan with the same options, so it
// too sees the final store streamed.
func (s *Stmt) engineOptions() core.Options {
	return core.Options{
		Threads:      s.opt.Threads,
		Strategy:     s.strat,
		TriggerGrain: s.opt.Grain,
		Utilization:  s.opt.Utilization,
		MemoryBudget: s.opt.MemoryBudget,
		SpillDir:     s.opt.SpillDir,
		StreamOutput: esql.OutputName,
	}
}

// QueryContext executes the prepared statement against the current catalog
// snapshot and returns a streaming cursor. Compilation is skipped entirely —
// the bound plan is reused; args are substituted into the plan's placeholder
// predicates per execution (type-checked against the column each `?`
// compares with), so one cached plan serves a whole family of predicates.
// Cancelling ctx (or closing the cursor) aborts the execution and returns
// its threads to the manager budget.
func (s *Stmt) QueryContext(ctx context.Context, args ...any) (*Rows, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Epoch revalidation: the common path is one atomic load — no cache
	// lock, no compiler. Only when DDL moved the catalog since this plan
	// was compiled does the statement re-resolve, through the plan cache
	// (a hit when another caller already recompiled the statement).
	prep := s.prep.Load()
	if prep.epoch != s.db.epoch.Load() {
		fresh, err := s.db.prepare(s.sql, &s.opt)
		if err != nil {
			return nil, err
		}
		// CAS, not Store: a racing revalidation may have installed a plan
		// compiled at a newer epoch; never replace it with an older one.
		s.prep.CompareAndSwap(prep, fresh)
		prep = fresh
	}
	vals, err := bindArgs(args)
	if err != nil {
		return nil, err
	}
	// Per-execution placeholder binding: a shallow copy of the plan with
	// ColParam predicates replaced by the argument constants. The cached
	// plan itself is never mutated, so concurrent executions with distinct
	// bindings cannot see each other's arguments.
	execPlan, err := prep.plan.BindParams(vals)
	if err != nil {
		return nil, err
	}
	rels, manager := s.db.snapshotRels()

	qctx, cancel := context.WithCancel(ctx)
	ch := make(chan []any, streamBuffer)
	copts := s.engineOptions()
	copts.Sink = &rowSink{ctx: qctx, ch: ch}

	// Begin admits the query under the manager, if one is installed, and
	// owns its spill environment; run.Execute below settles both.
	run, err := dbruntime.Begin(qctx, manager, execPlan, rels, copts, s.pri)
	if err != nil {
		cancel()
		return nil, err
	}

	threads, utilization := run.Granted()
	r := &Rows{
		cols:        prep.cols,
		types:       prep.types,
		utilization: utilization,
		rec:         Footer{Threads: threads},
		ch:          ch,
		done:        make(chan struct{}),
		cancel:      cancel,
		parent:      ctx,
	}
	go func() {
		// Threads are back in the budget and the spill files gone before the
		// cursor observes the end of the stream — Close-mid-result frees them
		// immediately.
		res, stats, execErr := run.Execute(qctx)
		r.rec.SpilledBytes, r.rec.SpillPasses = stats.SpilledBytes, stats.SpillPasses
		r.rec.ChainThreads = stats.ChainThreads
		r.execErr = execErr
		if execErr == nil && res != nil {
			r.rec.Operators = operatorStats(execPlan, res)
		}
		close(r.done)
		close(ch)
	}()
	return r, nil
}
