package core

import (
	"context"
	"testing"
	"testing/quick"
	"time"

	"dbs3/internal/lera"
	"dbs3/internal/relation"
	"dbs3/internal/workload"
)

// execute runs a plan under a background context.
func execute(plan *lera.Plan, db DB, opts Options) (*Result, error) {
	return ExecuteContext(context.Background(), plan, db, opts)
}

func executeJoin(t *testing.T, db *workload.JoinDB, assoc bool, algo lera.JoinAlgo, opts Options) *Result {
	t.Helper()
	var plan *lera.Plan
	var err error
	if assoc {
		plan, err = db.AssocJoinPlan(algo)
	} else {
		plan, err = db.IdealJoinPlan(algo)
	}
	if err != nil {
		t.Fatal(err)
	}
	res, err := execute(plan, db.Relations(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestIdealJoinCorrectAcrossConfigs(t *testing.T) {
	db, err := workload.NewJoinDB(2000, 200, 20, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []lera.JoinAlgo{lera.NestedLoop, lera.HashJoin, lera.TempIndex} {
		for _, threads := range []int{1, 4, 33} {
			for _, strat := range []StrategyKind{StrategyRandom, StrategyLPT} {
				res := executeJoin(t, db, false, algo, Options{Threads: threads, Strategy: strat})
				if err := db.VerifyJoinResult(res.Outputs["Res"]); err != nil {
					t.Errorf("algo=%v threads=%d strat=%v: %v", algo, threads, strat, err)
				}
			}
		}
	}
}

func TestAssocJoinCorrectAcrossConfigs(t *testing.T) {
	db, err := workload.NewJoinDB(2000, 200, 20, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []lera.JoinAlgo{lera.NestedLoop, lera.HashJoin, lera.TempIndex} {
		for _, threads := range []int{1, 7, 40} {
			res := executeJoin(t, db, true, algo, Options{Threads: threads})
			if err := db.VerifyJoinResult(res.Outputs["Res"]); err != nil {
				t.Errorf("algo=%v threads=%d: %v", algo, threads, err)
			}
		}
	}
}

func TestJoinResultsIdenticalAcrossConfigurations(t *testing.T) {
	db, err := workload.NewJoinDB(1500, 150, 15, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref := executeJoin(t, db, false, lera.NestedLoop, Options{Threads: 1})
	refRel, err := ref.Relation("Res")
	if err != nil {
		t.Fatal(err)
	}
	configs := []struct {
		assoc bool
		algo  lera.JoinAlgo
		opts  Options
	}{
		{false, lera.HashJoin, Options{Threads: 8}},
		{false, lera.TempIndex, Options{Threads: 8, Strategy: StrategyLPT}},
		{true, lera.NestedLoop, Options{Threads: 8}},
		{true, lera.HashJoin, Options{Threads: 3, CacheSize: 1}},
		{true, lera.TempIndex, Options{Threads: 8, QueueCap: 2}}, // tiny queues: exercise backpressure
	}
	for _, c := range configs {
		got := executeJoin(t, db, c.assoc, c.algo, c.opts)
		gotRel, err := got.Relation("Res")
		if err != nil {
			t.Fatal(err)
		}
		// Column names differ between triggered (B.*) and pipelined
		// (probe.*) plans; compare the value multisets.
		if gotRel.Cardinality() != refRel.Cardinality() {
			t.Errorf("assoc=%v algo=%v: %d tuples, want %d", c.assoc, c.algo, gotRel.Cardinality(), refRel.Cardinality())
			continue
		}
		if !gotRel.EqualMultiset(refRel) {
			t.Errorf("assoc=%v algo=%v: result multiset differs from sequential reference", c.assoc, c.algo)
		}
	}
}

func TestDegreeOfParallelismDecoupledFromPartitioning(t *testing.T) {
	// The paper's central claim: threads can exceed or undershoot the
	// degree of partitioning freely.
	db, err := workload.NewJoinDB(600, 60, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 2, 6, 13, 64} {
		res := executeJoin(t, db, false, lera.HashJoin, Options{Threads: threads})
		if err := db.VerifyJoinResult(res.Outputs["Res"]); err != nil {
			t.Errorf("threads=%d (d=6): %v", threads, err)
		}
	}
}

func TestTriggeredActivationCounts(t *testing.T) {
	db, err := workload.NewJoinDB(500, 100, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := executeJoin(t, db, false, lera.HashJoin, Options{Threads: 4})
	// Triggered join: one activation per instance.
	if got := res.Stats[0].Activations.Load(); got != 10 {
		t.Errorf("join activations = %d, want 10", got)
	}
	// The store runs inside the join's workers: no activations of its own,
	// every result tuple stored.
	if got := res.Stats[1].Activations.Load(); got != 0 {
		t.Errorf("store activations = %d, want 0", got)
	}
	if got := res.Stats[1].Emitted.Load(); got != 500 {
		t.Errorf("store emitted = %d, want 500", got)
	}
	if got := res.Stats[0].Setups.Load(); got != 10 {
		t.Errorf("join setups = %d, want one per instance", got)
	}
}

func TestPipelinedActivationCounts(t *testing.T) {
	db, err := workload.NewJoinDB(500, 100, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := executeJoin(t, db, true, lera.HashJoin, Options{Threads: 4})
	// Transmit: 10 trigger activations; join: one per redistributed tuple.
	if got := res.Stats[0].Activations.Load(); got != 10 {
		t.Errorf("transmit activations = %d, want 10", got)
	}
	if got := res.Stats[1].Activations.Load(); got != 100 {
		t.Errorf("join activations = %d, want 100 (one per B tuple)", got)
	}
	if got := res.Stats[1].Emitted.Load(); got != 500 {
		t.Errorf("join emitted = %d, want 500", got)
	}
}

func TestMultiChainPlanExecutes(t *testing.T) {
	db, err := workload.NewJoinDB(1000, 100, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Chain 1 filters Br (keep even ids) into T1; chain 2 repartitions T1
	// on k and joins with A.
	g := lera.NewGraph()
	f := g.Filter("f", "Br", lera.ColConst{Col: "k", Op: lera.GE, Val: relation.Int(0)})
	s1 := g.Store("s1", "T1")
	g.ConnectSame(f, s1)
	tr := g.Transmit("t", "T1")
	j := g.JoinPipelined("j", "A", []string{"k"}, []string{"k"}, lera.HashJoin)
	s2 := g.Store("s2", "Res")
	g.ConnectHash(tr, j, []string{"k"})
	g.ConnectSame(j, s2)
	plan, err := lera.Bind(g, db.Resolver())
	if err != nil {
		t.Fatal(err)
	}
	res, err := execute(plan, db.Relations(), Options{Threads: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs["T1"].Cardinality() != 100 {
		t.Errorf("T1 = %d tuples, want all 100 (k >= 0 always)", res.Outputs["T1"].Cardinality())
	}
	if err := db.VerifyJoinResult(res.Outputs["Res"]); err != nil {
		t.Error(err)
	}
}

// TestTriggeredJoinOverChainOutput: a triggered join may probe an earlier
// chain's output. Planning knows no sizes for it yet, so the join's skew
// is unknown rather than a lookup past an empty slice; its queues are
// ranked once the output exists.
func TestTriggeredJoinOverChainOutput(t *testing.T) {
	db, err := workload.NewJoinDB(1000, 100, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := lera.NewGraph()
	g.ConnectSame(g.Filter("f", "A", nil), g.Store("s1", "S"))
	j := g.JoinBound("j", "B", "S", []string{"k"}, []string{"k"}, lera.HashJoin)
	g.ConnectSame(j, g.Store("s2", "Res"))
	plan, err := lera.Bind(g, db.Resolver())
	if err != nil {
		t.Fatal(err)
	}
	res, err := execute(plan, db.Relations(), Options{Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Outputs["Res"].Cardinality(); got != 1000 {
		t.Errorf("join over S = %d tuples, want 1000", got)
	}
}

func TestFilterPlanSelectivity(t *testing.T) {
	db, err := workload.NewJoinDB(1000, 100, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := lera.NewGraph()
	f := g.Filter("f", "A", lera.ColConst{Col: "id", Op: lera.LT, Val: relation.Int(250)})
	g.ConnectSame(f, g.Store("s", "Sel"))
	plan, err := lera.Bind(g, db.Resolver())
	if err != nil {
		t.Fatal(err)
	}
	res, err := execute(plan, db.Relations(), Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	sel := res.Outputs["Sel"]
	if sel.Cardinality() != 250 {
		t.Errorf("selection = %d tuples, want 250", sel.Cardinality())
	}
	idIdx := workload.JoinSchema.MustIndex("id")
	for _, frag := range sel.Fragments {
		for _, tup := range frag {
			if tup[idIdx].AsInt() >= 250 {
				t.Fatalf("tuple %v escaped the filter", tup)
			}
		}
	}
}

func TestAggregatePlanCorrect(t *testing.T) {
	db, err := workload.NewJoinDB(1000, 100, 10, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	// COUNT of A grouped by k mod d residue class... group by k itself:
	// count per key must equal A's per-key multiplicity.
	g := lera.NewGraph()
	f := g.Filter("f", "A", nil)
	a := g.Aggregate("agg", []string{"k"}, lera.AggCount, "")
	g.ConnectHash(f, a, []string{"k"})
	g.ConnectSame(a, g.Store("s", "Counts"))
	plan, err := lera.Bind(g, db.Resolver())
	if err != nil {
		t.Fatal(err)
	}
	res, err := execute(plan, db.Relations(), Options{Threads: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Build the expected histogram directly.
	kIdx := workload.JoinSchema.MustIndex("k")
	want := make(map[int64]int64)
	for _, frag := range db.A.Fragments {
		for _, tup := range frag {
			want[tup[kIdx].AsInt()]++
		}
	}
	out := res.Outputs["Counts"]
	got := make(map[int64]int64)
	for _, frag := range out.Fragments {
		for _, tup := range frag {
			got[tup[0].AsInt()] = tup[1].AsInt()
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d groups, want %d", len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("count[%d] = %d, want %d", k, got[k], w)
		}
	}
}

func TestMapPlanProjects(t *testing.T) {
	db, err := workload.NewJoinDB(100, 20, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := lera.NewGraph()
	f := g.Filter("f", "A", nil)
	m := g.Map("m", []string{"id"})
	g.ConnectSame(f, m)
	g.ConnectSame(m, g.Store("s", "Ids"))
	plan, err := lera.Bind(g, db.Resolver())
	if err != nil {
		t.Fatal(err)
	}
	res, err := execute(plan, db.Relations(), Options{Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outputs["Ids"]
	if out.Cardinality() != 100 {
		t.Fatalf("projected %d tuples", out.Cardinality())
	}
	for _, frag := range out.Fragments {
		for _, tup := range frag {
			if len(tup) != 1 {
				t.Fatalf("projection arity = %d", len(tup))
			}
		}
	}
}

func TestExecuteChecksDatabase(t *testing.T) {
	db, err := workload.NewJoinDB(100, 20, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.IdealJoinPlan(lera.HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	// Missing relation.
	rels := db.Relations()
	delete(rels, "B")
	if _, err := execute(plan, rels, Options{Threads: 2}); err == nil {
		t.Error("missing relation accepted")
	}
	// Degree mismatch.
	db8, _ := workload.NewJoinDB(100, 24, 8, 0)
	rels = db.Relations()
	rels["B"] = db8.B
	if _, err := execute(plan, rels, Options{Threads: 2}); err == nil {
		t.Error("degree mismatch accepted")
	}
}

func TestResultRelationMissing(t *testing.T) {
	db, _ := workload.NewJoinDB(100, 20, 4, 0)
	res := executeJoin(t, db, false, lera.HashJoin, Options{Threads: 2})
	if _, err := res.Relation("nope"); err == nil {
		t.Error("missing output accepted")
	}
	if _, err := res.Relation("Res"); err != nil {
		t.Error(err)
	}
}

func TestAutoThreadSelection(t *testing.T) {
	db, _ := workload.NewJoinDB(400, 40, 4, 0)
	plan, err := db.IdealJoinPlan(lera.NestedLoop)
	if err != nil {
		t.Fatal(err)
	}
	res, err := execute(plan, db.Relations(), Options{}) // Threads = 0: scheduler decides
	if err != nil {
		t.Fatal(err)
	}
	if res.Alloc.Total < 1 {
		t.Errorf("auto allocation chose %d threads", res.Alloc.Total)
	}
	if err := db.VerifyJoinResult(res.Outputs["Res"]); err != nil {
		t.Error(err)
	}
}

func TestSecondaryPicksUnderSkew(t *testing.T) {
	// With heavy skew and multiple threads, threads whose main queues are
	// cheap must steal from other queues — the mechanism behind the model's
	// load balancing. We check the counter moves on the pipelined join.
	db, err := workload.NewJoinDB(4000, 400, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := executeJoin(t, db, true, lera.NestedLoop, Options{Threads: 8})
	if err := db.VerifyJoinResult(res.Outputs["Res"]); err != nil {
		t.Fatal(err)
	}
	total := res.Stats[1].SecondaryPicks.Load() + res.Stats[0].SecondaryPicks.Load()
	if total == 0 {
		t.Log("no secondary picks observed (acceptable on fast machines, but unusual)")
	}
}

// Empty build fragments give a pipelined nested-loop join probe queues of
// per-tuple cost 0, so their LPT score is 0. Once such a queue is the last
// non-empty one, every strategy must still pick it; a pick that only takes
// scores above 0 leaves the workers parked on a queue nobody drains.
func TestStrategyDrainsZeroScoreQueues(t *testing.T) {
	db, err := workload.NewJoinDB(6, 64, 8, 1) // A fragments [2 1 1 1 1 0 0 0]
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []lera.JoinAlgo{lera.NestedLoop, lera.HashJoin} {
		plan, err := db.AssocJoinPlan(algo)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []StrategyKind{StrategyRandom, StrategyLPT} {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			res, err := ExecuteContext(ctx, plan, db.Relations(), Options{Threads: 2, Strategy: strat})
			cancel()
			if err != nil {
				t.Errorf("algo=%v strat=%v: %v", algo, strat, err)
				continue
			}
			if err := db.VerifyJoinResult(res.Outputs["Res"]); err != nil {
				t.Errorf("algo=%v strat=%v: %v", algo, strat, err)
			}
		}
	}
}

func TestTriggerGrainCorrectAndMoreActivations(t *testing.T) {
	db, err := workload.NewJoinDB(2000, 200, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.IdealJoinPlan(lera.NestedLoop)
	if err != nil {
		t.Fatal(err)
	}
	// Whole-fragment triggers: 20 activations on the join.
	whole, err := execute(plan, db.Relations(), Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.VerifyJoinResult(whole.Outputs["Res"]); err != nil {
		t.Fatal(err)
	}
	if got := whole.Stats[0].Activations.Load(); got != 20 {
		t.Fatalf("whole-fragment activations = %d, want 20", got)
	}
	// Grain 3 over the probe side (10 tuples per B fragment): ceil(10/3) =
	// 4 partial triggers per instance.
	fine, err := execute(plan, db.Relations(), Options{Threads: 4, TriggerGrain: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.VerifyJoinResult(fine.Outputs["Res"]); err != nil {
		t.Fatal(err)
	}
	if got := fine.Stats[0].Activations.Load(); got != 20*4 {
		t.Errorf("grain-3 activations = %d, want 80", got)
	}
	// Results identical either way.
	a, _ := whole.Relation("Res")
	b, _ := fine.Relation("Res")
	if !a.EqualMultiset(b) {
		t.Error("grain changed the join result")
	}
}

func TestTriggerGrainOnFilter(t *testing.T) {
	db, err := workload.NewJoinDB(1000, 100, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := lera.NewGraph()
	f := g.Filter("f", "A", lera.ColConst{Col: "id", Op: lera.LT, Val: relation.Int(300)})
	g.ConnectSame(f, g.Store("s", "Sel"))
	plan, err := lera.Bind(g, db.Resolver())
	if err != nil {
		t.Fatal(err)
	}
	res, err := execute(plan, db.Relations(), Options{Threads: 3, TriggerGrain: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs["Sel"].Cardinality() != 300 {
		t.Errorf("selected %d, want 300", res.Outputs["Sel"].Cardinality())
	}
	// 10 fragments of 100 tuples, grain 7: 10 * ceil(100/7) = 150.
	if got := res.Stats[0].Activations.Load(); got != 150 {
		t.Errorf("activations = %d, want 150", got)
	}
}

func TestTriggerGrainLargerThanFragment(t *testing.T) {
	db, err := workload.NewJoinDB(100, 20, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.IdealJoinPlan(lera.HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	res, err := execute(plan, db.Relations(), Options{Threads: 2, TriggerGrain: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.VerifyJoinResult(res.Outputs["Res"]); err != nil {
		t.Error(err)
	}
	// Grain larger than any fragment: still one activation per instance.
	if got := res.Stats[0].Activations.Load(); got != 4 {
		t.Errorf("activations = %d, want 4", got)
	}
}

// Multi-user execution: several queries run concurrently against the same
// database (relations are immutable during execution), each with a throttled
// allocation; all answers must be exact.
func TestConcurrentQueries(t *testing.T) {
	db, err := workload.NewJoinDB(2000, 200, 20, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	rels := db.Relations()
	const users = 6
	errs := make(chan error, users)
	for u := 0; u < users; u++ {
		go func(u int) {
			plan, err := db.IdealJoinPlan(lera.HashJoin)
			if err != nil {
				errs <- err
				return
			}
			res, err := execute(plan, rels, Options{Utilization: 0.5, Seed: int64(u + 1)})
			if err != nil {
				errs <- err
				return
			}
			errs <- db.VerifyJoinResult(res.Outputs["Res"])
		}(u)
	}
	for u := 0; u < users; u++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// Property: for random (cardinality, degree, skew, threads, algorithm,
// strategy, grain) configurations, the engine always returns exactly the
// oracle join result.
func TestEngineJoinProperty(t *testing.T) {
	f := func(aRaw, dRaw, nRaw, thetaRaw, algoRaw, stratRaw, grainRaw uint8) bool {
		d := int(dRaw)%12 + 2
		aCard := (int(aRaw)%40 + 10) * d
		bCard := d * (int(aRaw)%5 + 1)
		theta := float64(thetaRaw%101) / 100
		threads := int(nRaw)%12 + 1
		algo := []lera.JoinAlgo{lera.NestedLoop, lera.HashJoin, lera.TempIndex}[int(algoRaw)%3]
		strat := []StrategyKind{StrategyRandom, StrategyLPT, StrategyAuto}[int(stratRaw)%3]
		grain := int(grainRaw) % 8 // 0 = whole fragment
		db, err := workload.NewJoinDB(aCard, bCard, d, theta)
		if err != nil {
			return false
		}
		assoc := algoRaw%2 == 0
		var plan *lera.Plan
		if assoc {
			plan, err = db.AssocJoinPlan(algo)
		} else {
			plan, err = db.IdealJoinPlan(algo)
		}
		if err != nil {
			return false
		}
		res, err := execute(plan, db.Relations(), Options{Threads: threads, Strategy: strat, TriggerGrain: grain, Seed: int64(aRaw) + 1})
		if err != nil {
			return false
		}
		return db.VerifyJoinResult(res.Outputs["Res"]) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
