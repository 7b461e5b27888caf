package dbs3_test

// The in-package benchmarks are the few measurements bench/ and the tests do
// not already make: the nested-loop join, the real engine's pool-size curve
// at engine-skew's shape, the activation-cache ablation, multi-chain
// readmission under a manager and the unmanaged throughput baseline.
// BenchmarkLoadCSV sits next to the heap probes it reads, in region_test.go.
// Run them with:
//
//	go test -bench=. -benchmem
//
// The figures are printed by cmd/dbs3-bench and checked by
// internal/experiments; the engine, operator, serve and set-up costs are
// bench/'s metrics (bench/README.md).

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"dbs3"
	"dbs3/internal/core"
	"dbs3/internal/lera"
	"dbs3/internal/race"
	"dbs3/internal/workload"
)

// --- Real-engine benches --------------------------------------------------

// joinShape sizes a JoinDB: |A|, |B| and the degree of both.
type joinShape struct{ a, b, degree int }

var (
	// smallJoin keeps the ablations quick.
	smallJoin = joinShape{20_000, 2_000, 40}
	// skewJoin is bench/'s engine-skew database, the paper's section 5.4.
	skewJoin = joinShape{100_000, 10_240, 64}
)

// engineJoinBench times one join plan through core and reports, per
// execution, the process CPU time over wall time, the secondary-queue picks
// and the join's BalanceRatio.
func engineJoinBench(b *testing.B, shape joinShape, assoc bool, algo lera.JoinAlgo, opts core.Options, theta float64) {
	b.Helper()
	db, err := workload.NewJoinDB(shape.a, shape.b, shape.degree, theta)
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
	var secondary, balance float64
	b.ResetTimer()
	cpu, wall := cpuTime(), time.Now()
	for i := 0; i < b.N; i++ {
		res, err := core.ExecuteContext(context.Background(), plan, rels, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Outputs["Res"].Cardinality() != db.ExpectedJoinCount() {
			b.Fatal("wrong result")
		}
		for id, st := range res.Stats {
			secondary += float64(st.SecondaryPicks.Load())
			if plan.Graph.Nodes[id].Kind == lera.OpJoin {
				balance += st.BalanceRatio()
			}
		}
	}
	b.ReportMetric((cpuTime()-cpu).Seconds()/time.Since(wall).Seconds(), "cpu/wall")
	b.ReportMetric(secondary/float64(b.N), "secondary/op")
	b.ReportMetric(balance/float64(b.N), "balance")
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func BenchmarkEngineIdealJoinNestedLoop(b *testing.B) {
	engineJoinBench(b, smallJoin, false, lera.NestedLoop, core.Options{Threads: 4}, 0)
}

// BenchmarkEngineJoinPools is the real engine's speed-up curve: IdealJoin
// and AssocJoin (hash join) over engine-skew's database at theta 0 and 1,
// at pool sizes 1 to 8, next to a pure-spin control of about the same
// length. The control shares a fixed amount of integer work among n
// goroutines with nothing else to contend on, so its speed-up and CPU over
// wall are what the host gives a perfectly parallel load; a join row at
// several threads whose CPU over wall is no better than one CPU's measures
// where the host ran the threads, not the engine. DESIGN.md's pool-size
// table is read from
//
//	go test -run '^$' -bench EngineJoinPools -benchtime 10x -count 15
func BenchmarkEngineJoinPools(b *testing.B) {
	pools := []int{1, 2, 4, 8}
	for _, plan := range []string{"ideal", "assoc"} {
		for _, theta := range []float64{0, 1} {
			for _, threads := range pools {
				b.Run(fmt.Sprintf("%s/theta=%v/threads=%d", plan, theta, threads), func(b *testing.B) {
					engineJoinBench(b, skewJoin, plan == "assoc", lera.HashJoin, core.Options{Threads: threads}, theta)
				})
			}
		}
	}
	for _, threads := range pools {
		b.Run(fmt.Sprintf("spin/threads=%d", threads), func(b *testing.B) {
			cpu, wall := cpuTime(), time.Now()
			for i := 0; i < b.N; i++ {
				spin(threads, spinWork)
			}
			b.ReportMetric((cpuTime()-cpu).Seconds()/time.Since(wall).Seconds(), "cpu/wall")
		})
	}
}

// spinWork is the control's total xorshift steps per execution: on a 2-vCPU
// Xeon, 17 ms on one goroutine, where one IdealJoin at theta 0 and one
// thread takes 12 ms.
const spinWork = 5_000_000

// spin runs work xorshift steps split evenly among n goroutines.
func spin(n, work int) {
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(g + 1)
			for i := 0; i < work/n; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			spinSink.Add(x)
		}()
	}
	wg.Wait()
}

// spinSink keeps the control's loops from being optimized away.
var spinSink atomic.Uint64

// --- Activation-cache ablation (DESIGN.md, Engine internals) -------------

// Internal activation cache: batch size 1 (per-activation locking) vs the
// default 16 vs 64 on a pipelined join.
func BenchmarkAblationCacheSize1(b *testing.B) {
	engineJoinBench(b, smallJoin, true, lera.HashJoin, core.Options{Threads: 4, CacheSize: 1}, 0)
}

func BenchmarkAblationCacheSize16(b *testing.B) {
	engineJoinBench(b, smallJoin, true, lera.HashJoin, core.Options{Threads: 4, CacheSize: 16}, 0)
}

func BenchmarkAblationCacheSize64(b *testing.B) {
	engineJoinBench(b, smallJoin, true, lera.HashJoin, core.Options{Threads: 4, CacheSize: 64}, 0)
}

// --- Allocation ceiling of the batched data plane ----------------------------

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

// TestPipelinedJoinAllocationCeiling: one execution of the batched pipelined
// join measures ~370 allocations (run-batched emission, flat join index,
// slab-carved results, the store run inside the join's workers); 410 leaves
// headroom for Go-runtime drift while still catching any per-tuple
// allocation creeping back into the probe or routing path — each one adds
// 40 000 to this count. What batching buys in time is
// bench/'s core.grain1_slowdown and core.novectorize_slowdown.
func TestPipelinedJoinAllocationCeiling(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	if got := race.AllocsPerRun(5, pipelinedJoin(t)); got > 410 {
		t.Errorf("batched pipelined join: %v allocations per execution, want at most 410", got)
	}
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

// Concurrent query throughput without a manager: every query schedules
// itself as if it owned the machine (the pre-runtime behavior). bench/'s
// serve-short and cluster-open measure the managed side.
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
// before aggregating. The readmission counters are reported as metrics.
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

// BenchmarkPreparedPointQuery is one execution of serve-short's prepared
// point query, SELECT * FROM short WHERE unique2 = ? over 2 000 Wisconsin
// rows at degree 8, unmanaged and drained: a small query's cost is nearly
// all engine start-up, so its allocations, bytes and time are start-up's.
func BenchmarkPreparedPointQuery(b *testing.B) {
	db := dbs3.New()
	if err := db.CreateWisconsin("short", 2_000, 8, "unique2", 1); err != nil {
		b.Fatal(err)
	}
	stmt, err := db.Prepare("SELECT * FROM short WHERE unique2 = ?", nil)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := stmt.QueryContext(ctx, i%2_000)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for rows.Next() {
			n++
		}
		if err := rows.Err(); err != nil || n != 1 {
			b.Fatalf("%d rows, error %v", n, err)
		}
	}
}
