package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"dbs3"
	"dbs3/internal/core"
	"dbs3/internal/esql"
	"dbs3/internal/lera"
	"dbs3/internal/partition"
	"dbs3/internal/relation"
	dbruntime "dbs3/internal/runtime"
	"dbs3/internal/storage"
	joindb "dbs3/internal/workload"
)

// answer is what an operation's result is checked against: its row count on
// every operation, the sum of all its integer values on every 16th.
type answer struct {
	rows, sum int64
}

func (a answer) check(what string, rows, sum int64, withSum bool) error {
	if rows != a.rows {
		return fmt.Errorf("%s: %d rows, want %d", what, rows, a.rows)
	}
	if withSum && sum != a.sum {
		return fmt.Errorf("%s: checksum %d, want %d", what, sum, a.sum)
	}
	return nil
}

// answerOf reduces a materialized reference result to what is compared.
func answerOf(res *dbs3.Result) answer {
	a := answer{rows: int64(len(res.Data))}
	for _, row := range res.Data {
		a.sum += rowSum(row)
	}
	return a
}

// rowSum adds a row's integer values into a checksum.
func rowSum(row []any) (sum int64) {
	for _, v := range row {
		if n, ok := v.(int64); ok {
			sum += n
		}
	}
	return sum
}

// oracles caches the reference answers per workload and seed: they come from
// a throwaway single-node unlimited-memory database and do not change
// between passes.
var oracles = map[oracleKey]any{}

type oracleKey struct {
	workload string
	seed     int64
}

// spillWorkload runs a hash join and a high-cardinality GROUP BY through the
// facade under a memory grant far below their state, so Grace partitions,
// sorted runs and the spill substrate do most of the work.
type spillWorkload struct {
	env     runEnv
	db      *dbs3.Database
	manager *dbruntime.Manager
	stmts   [2]*dbs3.Stmt
	want    [2]answer
}

var (
	spillClasses = []string{"spill_join", "spill_agg"}
	spillSQL     = []string{spillJoinSQL, spillAggSQL}
)

func (w *spillWorkload) classes() []string { return spillClasses }
func (w *spillWorkload) clients() int      { return 1 }
func (w *spillWorkload) rate() float64     { return 0 }

// spillData loads the catalog, calling lap between the relations.
func spillData(db *dbs3.Database, seed int64, lap func()) error {
	if err := db.CreateJoinPair("", spillACard, spillBCard, spillDegree, 0); err != nil {
		return err
	}
	lap()
	return db.CreateWisconsin("wisc", spillWisc, spillDegree, "unique2", seed)
}

func noLap() {}

func (w *spillWorkload) oracle(ctx context.Context, env runEnv) error {
	if cached, ok := oracles[oracleKey{"engine-spill", env.seed}]; ok {
		w.want = cached.([2]answer)
		return nil
	}
	db := dbs3.New()
	if err := spillData(db, env.seed, noLap); err != nil {
		return err
	}
	for i, sql := range spillSQL {
		res, err := db.QueryAllContext(ctx, sql, nil)
		if err != nil {
			return err
		}
		if res.SpilledBytes != 0 {
			return fmt.Errorf("engine-spill oracle spilled %d bytes without a memory budget", res.SpilledBytes)
		}
		w.want[i] = answerOf(res)
	}
	oracles[oracleKey{"engine-spill", env.seed}] = w.want
	return nil
}

func (w *spillWorkload) setup(_ context.Context, env runEnv, lap func()) error {
	w.env = env
	w.db = dbs3.New()
	if err := spillData(w.db, env.seed, lap); err != nil {
		return err
	}
	lap()
	w.manager = w.db.Manager(dbs3.ManagerConfig{Budget: env.nproc, MemoryBudget: spillMemory})
	for i, sql := range spillSQL {
		stmt, err := w.db.Prepare(sql, &dbs3.Options{SpillDir: env.spillDir})
		if err != nil {
			return err
		}
		w.stmts[i] = stmt
	}
	return nil
}

func (w *spillWorkload) warm(ctx context.Context) error {
	for i := 0; i < 2*len(spillClasses); i++ {
		if res := w.op(ctx, 0, i, 0, nil); res.err != nil {
			return res.err
		}
	}
	return nil
}

func (w *spillWorkload) op(ctx context.Context, _, i, _ int, root *liveSpan) opResult {
	class := i % len(spillClasses)
	out := opResult{class: class}
	sp := root.child("dbs3.query")
	t0 := time.Now()
	rows, err := w.stmts[class].QueryContext(ctx)
	if err != nil {
		out.err = err
		sp.end()
		return out
	}
	withSum := i%checksumEach == 0
	var sum int64
	for rows.Next() {
		if out.rows == 0 {
			out.firstRow = time.Since(t0)
		}
		out.rows++
		if withSum {
			var a, b int64
			if err := rows.Scan(&a, &b); err != nil {
				out.err = err
			}
			sum += a + b
		}
	}
	out.latency = time.Since(t0)
	sp.end()
	out.threads = rows.Threads()
	if err := rows.Err(); err != nil {
		out.err = err
	}
	if out.err == nil {
		out.err = w.want[class].check("engine-spill "+spillClasses[class], out.rows, sum, withSum)
	}
	if spilled, _ := rows.SpillStats(); out.err == nil && spilled == 0 {
		out.err = fmt.Errorf("engine-spill %s did not spill under a %d-byte grant", spillClasses[class], spillMemory)
	}
	return out
}

func managerStats(mgrs ...*dbruntime.Manager) managerLoad {
	var l managerLoad
	for _, m := range mgrs {
		if m == nil {
			continue
		}
		st := m.Stats()
		l.managers++
		l.budget += m.Budget()
		l.threads += st.ThreadsInFlight
		l.peak = max(l.peak, st.PeakThreads)
		l.queued += st.Queued
		l.active += st.Active
		l.mem += st.MemInFlight
		l.admitted += st.Admitted
		l.rejected += st.Rejected
		l.readmissions += st.Readmissions
		l.smoothed += st.SmoothedUtilization
		l.cacheHits += st.PlanCacheHits
		l.cacheMisses += st.PlanCacheMisses
	}
	if l.managers > 0 {
		l.smoothed /= float64(l.managers)
	}
	return l
}

// ledgerOf reports what a manager still holds.
func ledgerOf(mgrs ...*dbruntime.Manager) error {
	for i, m := range mgrs {
		if m == nil {
			continue
		}
		if st := m.Stats(); st.ThreadsInFlight != 0 || st.MemInFlight != 0 || st.Active != 0 {
			return fmt.Errorf("manager %d holds %d threads, %d bytes, %d queries", i, st.ThreadsInFlight, st.MemInFlight, st.Active)
		}
	}
	return nil
}

func (w *spillWorkload) load() managerLoad {
	l := managerStats(w.manager)
	if w.db != nil {
		l.poolHits, l.poolMisses, _ = w.db.BufferPoolStats()
	}
	return l
}

func (w *spillWorkload) ledger() error { return ledgerOf(w.manager) }

func (w *spillWorkload) teardown() {
	if w.manager != nil {
		w.manager.Close()
	}
	*w = spillWorkload{want: w.want}
}

// countSink is the replay's result consumer: it counts rows and drops them.
type countSink struct{ rows atomic.Int64 }

func (s *countSink) Push(relation.Tuple) error { s.rows.Add(1); return nil }

// replayCatalog rebuilds the workload's relations outside the facade, so the
// stages the facade runs can be called one by one.
func replayCatalog(seed int64) (core.DB, lera.MapResolver, int64, error) {
	jdb, err := joindb.NewJoinDB(spillACard, spillBCard, spillDegree, 0)
	if err != nil {
		return nil, nil, 0, err
	}
	wisc, wiscInfo, err := partitionWisconsin("wisc", spillWisc, spillDegree, seed)
	if err != nil {
		return nil, nil, 0, err
	}
	resolver := jdb.Resolver()
	resolver["wisc"] = wiscInfo
	rels := core.DB(jdb.Relations())
	rels["wisc"] = wisc
	// Input bytes of one join plus one GROUP BY, as the spill codec sizes them.
	var input int64
	for _, p := range []*partition.Partitioned{jdb.A, jdb.B, wisc} {
		for _, frag := range p.Fragments {
			for _, t := range frag {
				input += int64(storage.EncodedSize(t))
			}
		}
	}
	return rels, resolver, input, nil
}

// layers runs each statement twice per repetition: once through the facade
// and once stage by stage on the same data, so the facade's own share is the
// difference; then the same statements without a budget for the slowdown
// spilling costs.
func (w *spillWorkload) layers(ctx context.Context, tr *tracer, m metrics) error {
	rels, resolver, inputBytes, err := replayCatalog(w.env.seed)
	if err != nil {
		return err
	}
	replayMgr := dbruntime.NewManager(dbruntime.Config{Budget: w.env.nproc, MemoryBudget: spillMemory})
	defer replayMgr.Close()
	unbudgeted := dbs3.New()
	if err := spillData(unbudgeted, w.env.seed, noLap); err != nil {
		return err
	}

	const reps = 6
	var direct, staged, memory [2][]float64
	var compileUS, estimateUS, spilled, spillPasses []float64
	for i := 0; i < reps*len(spillSQL); i++ {
		class := i % len(spillSQL)
		twin := tr.op()
		res := w.op(ctx, 0, class+len(spillSQL), 0, twin) // an index that skips the checksum
		if res.err != nil {
			return res.err
		}
		direct[class] = append(direct[class], ms(res.latency))

		// The stages of Stmt.QueryContext, called from outside on the same data.
		t0 := time.Now()
		sp := twin.child("esql.compile")
		plan, _, err := (&esql.Compiler{Resolver: resolver}).Compile(spillSQL[class])
		sp.end()
		if err != nil {
			return err
		}
		compileUS = append(compileUS, us(time.Since(t0)))
		t1 := time.Now()
		sp = twin.child("lera.estimate")
		lera.Estimate(plan, lera.DefaultCostModel())
		sp.end()
		estimateUS = append(estimateUS, us(time.Since(t1)))
		// Like the facade, stream the result instead of materializing it: a
		// materializing store would itself spill under the grant.
		sink := &countSink{}
		opts := core.Options{SpillDir: w.env.spillDir, StreamOutput: esql.OutputName, Sink: sink}
		sp = twin.child("runtime.admit") // plans the allocation: core.allocate is inside it
		adm, err := replayMgr.Admit(ctx, plan, rels, &opts, dbruntime.PriorityInteractive)
		sp.end()
		if err != nil {
			return err
		}
		sp = twin.child("core.execute")
		_, err = core.ExecuteAllocated(ctx, plan, rels, opts, adm.Alloc())
		sp.end()
		sp = twin.child("runtime.finish")
		adm.Finish(err)
		sp.end()
		twin.end()
		if err != nil {
			return err
		}
		staged[class] = append(staged[class], ms(time.Since(t0)))
		if got := sink.rows.Load(); got != w.want[class].rows {
			return fmt.Errorf("engine-spill replay %s: %d rows, want %d", spillClasses[class], got, w.want[class].rows)
		}

		all, err := w.db.QueryAllContext(ctx, spillSQL[class], &dbs3.Options{SpillDir: w.env.spillDir})
		if err != nil {
			return err
		}
		spilled = append(spilled, float64(all.SpilledBytes))
		spillPasses = append(spillPasses, float64(all.SpillPasses))
		t0 = time.Now()
		if _, err := unbudgeted.QueryAllContext(ctx, spillSQL[class], nil); err != nil {
			return err
		}
		memory[class] = append(memory[class], ms(time.Since(t0)))
	}
	m["esql.compile_us"] = median(compileUS)
	m["lera.estimate_us"] = median(estimateUS)
	m["dbs3.facade_overhead_us"] = (median(direct[0]) + median(direct[1]) - median(staged[0]) - median(staged[1])) / 2 * 1000
	m["operator.spill_slowdown.join"] = median(direct[0]) / median(memory[0])
	m["operator.spill_slowdown.aggregate"] = median(direct[1]) / median(memory[1])
	m["operator.spilled_bytes_per_op"] = mean(spilled)
	m["operator.spill_passes_per_op"] = mean(spillPasses)
	m["storage.spill_bytes_per_input_byte"] = 2 * mean(spilled) / float64(inputBytes)

	// The cursor on its own: drain a large unbudgeted result in process.
	cursorRows := 0
	d, err := medianTime(5, func() error {
		rows, err := unbudgeted.QueryContext(ctx, spillJoinSQL, nil)
		if err != nil {
			return err
		}
		defer rows.Close()
		cursorRows = 0
		for rows.Next() {
			cursorRows++
		}
		return rows.Err()
	})
	if err != nil {
		return err
	}
	m["dbs3.cursor_ns_per_row"] = float64(d) / float64(cursorRows)

	if err := probeRuntime(ctx, m); err != nil {
		return err
	}
	if err := probeStorage(w.env.spillDir, m); err != nil {
		return err
	}
	return probeOperators(ctx, m, "aggregate", "hash_join")
}
