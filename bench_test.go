package dbs3_test

// The benchmark harness: one testing.B benchmark per figure of the paper's
// evaluation (regenerated on the virtual-time simulator; key scalars are
// attached as custom metrics), plus real-engine benchmarks and the ablation
// benches DESIGN.md calls out. Run everything with:
//
//	go test -bench=. -benchmem
//
// and print the full figure tables with cmd/dbs3-bench.

import (
	"context"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"testing"

	"dbs3"
	"dbs3/internal/baseline"
	"dbs3/internal/core"
	"dbs3/internal/experiments"
	"dbs3/internal/lera"
	"dbs3/internal/race"
	"dbs3/internal/sim"
	"dbs3/internal/workload"
	"dbs3/internal/zipf"
)

// --- Figure benches -------------------------------------------------------

func BenchmarkFig08RemoteVsLocal(b *testing.B) {
	var f *experiments.Figure
	for i := 0; i < b.N; i++ {
		f = experiments.Fig8()
	}
	remote, _ := f.Find("Remote execution").Y(30)
	local, _ := f.Find("Local execution").Y(30)
	b.ReportMetric((remote-local)/remote*100, "remote_overhead_%")
}

func BenchmarkFig09RemoteLocalDelta(b *testing.B) {
	var f *experiments.Figure
	for i := 0; i < b.N; i++ {
		f = experiments.Fig9()
	}
	d5, _ := f.Series[0].Y(5)
	d30, _ := f.Series[0].Y(30)
	b.ReportMetric(d5, "delta_ms_at_5")
	b.ReportMetric(d30, "delta_ms_at_30")
}

func BenchmarkFig12AssocJoinSkew(b *testing.B) {
	var f *experiments.Figure
	for i := 0; i < b.N; i++ {
		f = experiments.Fig12()
	}
	m := f.Find("Measured execution time (Random)")
	flat, _ := m.Y(0)
	skew, _ := m.Y(1)
	b.ReportMetric((skew/flat-1)*100, "skew_cost_%")
}

func BenchmarkFig13IdealJoinSkew(b *testing.B) {
	var f *experiments.Figure
	for i := 0; i < b.N; i++ {
		f = experiments.Fig13()
	}
	random, _ := f.Find("Random consumption strategy").Y(1)
	lpt, _ := f.Find("LPT consumption strategy").Y(1)
	b.ReportMetric(random, "random_s_at_zipf1")
	b.ReportMetric(lpt, "lpt_s_at_zipf1")
}

func BenchmarkFig14AssocJoinSpeedup(b *testing.B) {
	var f *experiments.Figure
	for i := 0; i < b.N; i++ {
		f = experiments.Fig14()
	}
	un, _ := f.Find("Unskewed data").Y(70)
	sk, _ := f.Find("Skewed data (Zipf = 1)").Y(70)
	b.ReportMetric(un, "speedup_at_70")
	b.ReportMetric(sk, "skewed_speedup_at_70")
}

func BenchmarkFig15IdealJoinSpeedup(b *testing.B) {
	var f *experiments.Figure
	for i := 0; i < b.N; i++ {
		f = experiments.Fig15()
	}
	for _, s := range []struct{ name, metric string }{
		{"Zipf = 0.4", "ceiling_zipf04"},
		{"Zipf = 0.6", "ceiling_zipf06"},
		{"Zipf = 1", "ceiling_zipf1"},
	} {
		peak := 0.0
		for _, p := range f.Find(s.name).Points {
			if p.Y > peak {
				peak = p.Y
			}
		}
		b.ReportMetric(peak, s.metric)
	}
}

func BenchmarkFig16PartitioningOverhead(b *testing.B) {
	var f *experiments.Figure
	for i := 0; i < b.N; i++ {
		f = experiments.Fig16()
	}
	slope := func(name string) float64 {
		s := f.Find(name)
		y1, _ := s.Y(100)
		y2, _ := s.Y(1500)
		return (y2 - y1) / 1400 * 1000 // ms per degree
	}
	b.ReportMetric(slope("Overhead for IdealJoin"), "ideal_ms_per_degree")
	b.ReportMetric(slope("Overhead for AssocJoin"), "assoc_ms_per_degree")
}

func BenchmarkFig17IndexPartitioning(b *testing.B) {
	var f *experiments.Figure
	for i := 0; i < b.N; i++ {
		f = experiments.Fig17()
	}
	argmin := func(name string) float64 {
		s := f.Find(name)
		bestX, bestY := 0.0, 1e18
		for _, p := range s.Points {
			if p.Y < bestY {
				bestX, bestY = p.X, p.Y
			}
		}
		return bestX
	}
	b.ReportMetric(argmin("AssocJoin execution time"), "assoc_optimal_d")
	b.ReportMetric(argmin("IdealJoin execution time"), "ideal_optimal_d")
}

func BenchmarkFig18SkewOverheadVsPartitioning(b *testing.B) {
	var f *experiments.Figure
	for i := 0; i < b.N; i++ {
		f = experiments.Fig18()
	}
	v20, _ := f.Find("Ideal Join (nested loop)").Y(20)
	v1500, _ := f.Find("Ideal Join (nested loop)").Y(1500)
	b.ReportMetric(v20, "v_at_d20")
	b.ReportMetric(v1500, "v_at_d1500")
}

func BenchmarkFig19SavedTime(b *testing.B) {
	var f *experiments.Figure
	for i := 0; i < b.N; i++ {
		f = experiments.Fig19()
	}
	s := f.Find("Saved time, Ideal Join (temp. index)")
	final := s.Points[len(s.Points)-1].Y
	t0, _ := f.Find("T0 (unskewed execution time)").Y(1500)
	b.ReportMetric(final, "saved_s_at_d1500")
	b.ReportMetric(t0, "t0_s")
}

// --- Real-engine benches --------------------------------------------------

func engineJoinBench(b *testing.B, assoc bool, algo lera.JoinAlgo, opts core.Options, theta float64) {
	b.Helper()
	db, err := workload.NewJoinDB(20_000, 2_000, 40, theta)
	if err != nil {
		b.Fatal(err)
	}
	var plan *lera.Plan
	if assoc {
		plan, err = db.AssocJoinPlan(algo)
	} else {
		plan, err = db.IdealJoinPlan(algo)
	}
	if err != nil {
		b.Fatal(err)
	}
	rels := db.Relations()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.ExecuteContext(context.Background(), plan, rels, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Outputs["Res"].Cardinality() != db.ExpectedJoinCount() {
			b.Fatal("wrong result")
		}
	}
}

func BenchmarkEngineIdealJoinHash(b *testing.B) {
	engineJoinBench(b, false, lera.HashJoin, core.Options{Threads: 4}, 0)
}

func BenchmarkEngineIdealJoinTempIndex(b *testing.B) {
	engineJoinBench(b, false, lera.TempIndex, core.Options{Threads: 4}, 0)
}

func BenchmarkEngineIdealJoinNestedLoop(b *testing.B) {
	engineJoinBench(b, false, lera.NestedLoop, core.Options{Threads: 4}, 0)
}

func BenchmarkEngineAssocJoinHash(b *testing.B) {
	engineJoinBench(b, true, lera.HashJoin, core.Options{Threads: 4}, 0)
}

func BenchmarkEngineSkewedRandom(b *testing.B) {
	engineJoinBench(b, false, lera.HashJoin, core.Options{Threads: 4, Strategy: core.StrategyRandom}, 1)
}

func BenchmarkEngineSkewedLPT(b *testing.B) {
	engineJoinBench(b, false, lera.HashJoin, core.Options{Threads: 4, Strategy: core.StrategyLPT}, 1)
}

// --- Ablation benches (DESIGN.md §6) ---------------------------------------

// Internal activation cache: batch size 1 (per-activation locking) vs the
// default 16 vs 64 on a pipelined join.
func BenchmarkAblationCacheSize1(b *testing.B) {
	engineJoinBench(b, true, lera.HashJoin, core.Options{Threads: 4, CacheSize: 1}, 0)
}

func BenchmarkAblationCacheSize16(b *testing.B) {
	engineJoinBench(b, true, lera.HashJoin, core.Options{Threads: 4, CacheSize: 16}, 0)
}

func BenchmarkAblationCacheSize64(b *testing.B) {
	engineJoinBench(b, true, lera.HashJoin, core.Options{Threads: 4, CacheSize: 64}, 0)
}

// Static thread-per-instance baseline vs the DBS3 pool, real execution.
func BenchmarkAblationThreadPerInstance(b *testing.B) {
	db, err := workload.NewJoinDB(20_000, 2_000, 40, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := baseline.ThreadPerInstanceJoin(db.A, db.B, "k", "k")
		if err != nil {
			b.Fatal(err)
		}
		if res.Cardinality() != db.ExpectedJoinCount() {
			b.Fatal("wrong result")
		}
	}
}

// Dynamic page-based model (XPRS style) on the same join.
func BenchmarkAblationDynamicPages(b *testing.B) {
	db, err := workload.NewJoinDB(20_000, 2_000, 40, 1)
	if err != nil {
		b.Fatal(err)
	}
	buildRel, probeRel := db.A.Union(), db.B.Union()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := baseline.DynamicJoin{Threads: 4}.Run(buildRel, probeRel, "k", "k")
		if err != nil {
			b.Fatal(err)
		}
		if res.Cardinality() != db.ExpectedJoinCount() {
			b.Fatal("wrong result")
		}
	}
}

// Virtual-time ablation: DBS3 pool vs the static model under skew, as a
// makespan ratio (the scheduling win independent of host cores).
func BenchmarkAblationPoolVsStaticSim(b *testing.B) {
	sizes := zipf.Sizes(100_000, 200, 0.8)
	costs := make([]float64, len(sizes))
	for i, s := range sizes {
		costs[i] = float64(s)
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		static := baseline.StaticMakespan(costs, 20)
		pool := sim.Triggered(sim.TriggeredSpec{Costs: costs, Threads: 20, Strategy: sim.LPT}, sim.Config{Processors: 20})
		ratio = static / pool.Makespan
	}
	b.ReportMetric(ratio, "static/pool_makespan")
}

// Main-queue affinity: the engine's secondary-pick counter under balanced vs
// skewed load, surfaced as a metric.
func BenchmarkAblationQueueAffinity(b *testing.B) {
	db, err := workload.NewJoinDB(20_000, 2_000, 40, 1)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := db.AssocJoinPlan(lera.HashJoin)
	if err != nil {
		b.Fatal(err)
	}
	rels := db.Relations()
	var picks int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.ExecuteContext(context.Background(), plan, rels, core.Options{Threads: 4})
		if err != nil {
			b.Fatal(err)
		}
		picks = res.Stats[1].SecondaryPicks.Load()
	}
	b.ReportMetric(float64(picks), "secondary_picks")
}

// --- Batch-at-a-time hot-path benches ----------------------------------------

// The CoreHotPath benches run the batched, vectorized data plane on a
// pipelined join and a GROUP BY. What the batching buys over the per-tuple
// protocol is bench/'s core.grain1_slowdown and core.novectorize_slowdown;
// what it must not cost is TestPipelinedJoinAllocationCeiling below.
//
// GC is excluded from the timed region (disabled during iterations, with a
// full collection between them): collection cost scales with the
// materialized result and the generated database, and on small heaps its
// scheduling noise swamps the data-plane cost the benches exist to show.

// runGCExcluded disables the collector for the benchmark loop, collecting
// manually outside the timer before each iteration.
func runGCExcluded(b *testing.B, iter func()) {
	b.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
		iter()
	}
}

// pipelinedJoin returns one execution of the probe-stream-heavy AssocJoin: a
// small build side and a 40k-tuple redistributed probe stream keep the queue
// protocol the dominant cost. Degree 8 keeps the per-destination route
// buffers actually filling to the grain (at high degrees the stream spreads
// so thin that most flushes are partial).
func pipelinedJoin(tb testing.TB) func() {
	tb.Helper()
	db, err := workload.NewJoinDB(2_000, 40_000, 8, 0)
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := db.AssocJoinPlan(lera.HashJoin)
	if err != nil {
		tb.Fatal(err)
	}
	rels := db.Relations()
	return func() {
		res, err := core.ExecuteContext(context.Background(), plan, rels, core.Options{Threads: 4})
		if err != nil {
			tb.Fatal(err)
		}
		if res.Outputs["Res"].Cardinality() != db.ExpectedJoinCount() {
			tb.Fatal("wrong result")
		}
	}
}

func BenchmarkCoreHotPathPipelinedJoinBatched(b *testing.B) {
	run := pipelinedJoin(b)
	b.ReportAllocs()
	runGCExcluded(b, run)
}

// TestPipelinedJoinAllocationCeiling: one execution of the batched pipelined
// join measures ~480 allocations (run-batched emission, flat join index,
// slab-carved results); 700 leaves headroom for Go-runtime drift while still
// catching any per-tuple allocation creeping back into the probe or routing
// path — each one adds 40 000 to this count.
func TestPipelinedJoinAllocationCeiling(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	if got := testing.AllocsPerRun(5, pipelinedJoin(t)); got > 700 {
		t.Errorf("batched pipelined join: %v allocations per execution, want at most 700", got)
	}
}

func BenchmarkCoreHotPathAggregateBatched(b *testing.B) {
	db := dbs3.New()
	if err := db.CreateWisconsin("wisc", 50_000, 16, "unique2", 42); err != nil {
		b.Fatal(err)
	}
	opt := &dbs3.Options{Threads: 4}
	b.ReportAllocs()
	runGCExcluded(b, func() {
		res, err := db.QueryAllContext(context.Background(), "SELECT ten, SUM(unique1) FROM wisc GROUP BY ten", opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Data) != 10 {
			b.Fatalf("wrong result: %d groups", len(res.Data))
		}
	})
}

// --- Load benches ------------------------------------------------------------

// resident is the heap still reachable after two collections and the part of
// it the collector has to scan for pointers (runtime/metrics'
// /gc/scan/heap:bytes, which is as of the last collection).
func resident() (live, scan float64) {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	metrics.Read(s)
	return float64(m.HeapAlloc), float64(s[0].Value.Uint64())
}

// reportResident reports what was built since base was taken, per tuple: the
// bytes that stay resident and how many of them every later collection has
// to scan. kept is what was built; it is live until here.
func reportResident(b *testing.B, baseLive, baseScan float64, tuples int, kept any) {
	b.Helper()
	live, scan := resident()
	b.ReportMetric((live-baseLive)/float64(tuples), "B/tuple")
	b.ReportMetric(max(scan-baseScan, 0)/float64(tuples), "scan-B/tuple")
	runtime.KeepAlive(kept)
}

// benchLoad times load (which returns what it built, to be kept alive, and
// how many tuples that holds) and reports, next to allocs/op, the resident
// and the scannable bytes per tuple of the last database built: what bench/'s
// setup_s and setup_heap_mb are made of, and what the collector pays for it
// in every cycle afterwards, visible to `go test -bench`.
func benchLoad(b *testing.B, load func() (any, int)) {
	b.Helper()
	live, scan := resident()
	var built any
	var tuples int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		built, tuples = load()
	}
	b.StopTimer()
	reportResident(b, live, scan, tuples, built)
}

// BenchmarkLoadJoinDB builds engine-skew's database: 3-column tuples, B
// placed twice (B and Br share tuples, so they count once).
func BenchmarkLoadJoinDB(b *testing.B) {
	benchLoad(b, func() (any, int) {
		db, err := workload.NewJoinDB(100_000, 10_240, 64, 1)
		if err != nil {
			b.Fatal(err)
		}
		return db, db.ACard + db.BCard
	})
}

// BenchmarkLoadWisconsin generates and hash-partitions a 16-column Wisconsin
// relation through the facade.
func BenchmarkLoadWisconsin(b *testing.B) {
	const card = 20_000
	benchLoad(b, func() (any, int) {
		db := dbs3.New()
		if err := db.CreateWisconsin("wisc", card, 16, "unique2", 42); err != nil {
			b.Fatal(err)
		}
		return db, card
	})
}

// --- Concurrent runtime benches --------------------------------------------

func concurrentDB(b *testing.B) *dbs3.Database {
	b.Helper()
	db := dbs3.New()
	if err := db.CreateWisconsin("wisc", 20_000, 16, "unique2", 42); err != nil {
		b.Fatal(err)
	}
	if err := db.CreateJoinPair("", 10_000, 1_000, 20, 0); err != nil {
		b.Fatal(err)
	}
	return db
}

func managedThroughput(b *testing.B, clients int) {
	db := concurrentDB(b)
	m := db.Manager(dbs3.ManagerConfig{Budget: 8})
	stmts := []string{
		"SELECT unique2 FROM wisc WHERE unique1 < 10000",
		"SELECT * FROM A JOIN B ON A.k = B.k",
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	per := (b.N + clients - 1) / clients
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				stmt := stmts[(c+i)%len(stmts)]
				if _, err := db.QueryAllContext(context.Background(), stmt, nil); err != nil {
					b.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	st := m.Stats()
	b.ReportMetric(float64(st.PeakThreads), "peak_threads")
}

// Concurrent query throughput through the QueryManager: the feedback loop
// shrinks per-query parallelism as client concurrency grows, so total
// allocation stays within one shared budget instead of oversubscribing the
// machine clients-fold.
func BenchmarkManagedThroughput1Client(b *testing.B)  { managedThroughput(b, 1) }
func BenchmarkManagedThroughput4Clients(b *testing.B) { managedThroughput(b, 4) }
func BenchmarkManagedThroughput8Clients(b *testing.B) { managedThroughput(b, 8) }

// The same workload without a manager: every query schedules itself as if
// it owned the machine (the pre-runtime behavior), as a baseline.
func BenchmarkUnmanagedThroughput8Clients(b *testing.B) {
	db := concurrentDB(b)
	stmts := []string{
		"SELECT unique2 FROM wisc WHERE unique1 < 10000",
		"SELECT * FROM A JOIN B ON A.k = B.k",
	}
	const clients = 8
	b.ResetTimer()
	var wg sync.WaitGroup
	per := (b.N + clients - 1) / clients
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				stmt := stmts[(c+i)%len(stmts)]
				if _, err := db.QueryAllContext(context.Background(), stmt, nil); err != nil {
					b.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// Multi-chain adaptive throughput: concurrent clients run a Materialize
// GROUP BY — two chains with a thread renegotiation at the boundary — so
// every query returns its scan/filter chain's surplus threads to the budget
// before aggregating. The readmission counters are reported as metrics; the
// managed-vs-unmanaged benches above are the single-chain baseline.
func BenchmarkManagedAdaptiveMultiChain(b *testing.B) {
	db := concurrentDB(b)
	m := db.Manager(dbs3.ManagerConfig{Budget: 8})
	opt := &dbs3.Options{Materialize: true}
	const clients = 4
	b.ResetTimer()
	var wg sync.WaitGroup
	per := (b.N + clients - 1) / clients
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := db.QueryAllContext(context.Background(), "SELECT ten, COUNT(*) FROM wisc GROUP BY ten", opt); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := m.Stats()
	b.ReportMetric(float64(st.PeakThreads), "peak_threads")
	if st.Completed > 0 {
		b.ReportMetric(float64(st.Readmissions)/float64(st.Completed), "readmissions/query")
		b.ReportMetric(float64(st.ThreadsReturnedEarly)/float64(st.Completed), "threads_returned/query")
	}
}

// Extension bench (§6 future work): the grain of parallelism lifts the
// skewed triggered join's ceiling.
func BenchmarkExtGrainOfParallelism(b *testing.B) {
	var f *experiments.Figure
	for i := 0; i < b.N; i++ {
		f = experiments.ExtGrain()
	}
	peak := func(name string) float64 {
		best := 0.0
		for _, p := range f.Find(name).Points {
			if p.Y > best {
				best = p.Y
			}
		}
		return best
	}
	b.ReportMetric(peak("Whole-fragment triggers (paper)"), "ceiling_whole")
	b.ReportMetric(peak("Grain = 2 probe tuples"), "ceiling_grain2")
}
