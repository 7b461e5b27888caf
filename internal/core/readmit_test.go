package core

import (
	"sync"
	"testing"

	"dbs3/internal/lera"
	"dbs3/internal/relation"
	"dbs3/internal/workload"
)

// twoChainPlan builds the canonical two-chain shape: chain 1 filters Br into
// T1, chain 2 repartitions T1 on k and joins with A (a materialization point
// between them).
func twoChainPlan(t testing.TB, algo lera.JoinAlgo) (*lera.Plan, DB) {
	t.Helper()
	db, err := workload.NewJoinDB(4_000, 400, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := lera.NewGraph()
	f := g.Filter("f", "Br", lera.ColConst{Col: "k", Op: lera.GE, Val: relation.Int(0)})
	s1 := g.Store("s1", "T1")
	g.ConnectSame(f, s1)
	tr := g.Transmit("t", "T1")
	j := g.JoinPipelined("j", "A", []string{"k"}, []string{"k"}, algo)
	s2 := g.Store("s2", "Res")
	g.ConnectHash(tr, j, []string{"k"})
	g.ConnectSame(j, s2)
	plan, err := lera.Bind(g, db.Resolver())
	if err != nil {
		t.Fatal(err)
	}
	return plan, db.Relations()
}

// Auto mode gives each chain its own desired total from its complexity; the
// light filter chain wants fewer threads than the heavy join chain, and every
// want respects the machine cap.
func TestAllocateChainWant(t *testing.T) {
	plan, db := twoChainPlan(t, lera.NestedLoop)
	alloc, err := PlanAllocation(plan, db, Options{Processors: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(alloc.ChainWant) != 2 {
		t.Fatalf("ChainWant = %v, want 2 entries", alloc.ChainWant)
	}
	// Chain 0 is the producer (filter -> store), chain 1 the nested-loop
	// join: the join chain's complexity dwarfs the filter's.
	if alloc.ChainWant[0] >= alloc.ChainWant[1] {
		t.Errorf("ChainWant = %v; the join chain should want more than the filter chain", alloc.ChainWant)
	}
	for ci, w := range alloc.ChainWant {
		if w < 1 || w > 64 {
			t.Errorf("ChainWant[%d] = %d outside [1, machine]", ci, w)
		}
	}
	// Machine raises the want cap past an admission-squeezed Processors.
	squeezed, err := PlanAllocation(plan, db, Options{Processors: 2, Machine: 16})
	if err != nil {
		t.Fatal(err)
	}
	if squeezed.Total > 2 {
		t.Errorf("Total = %d exceeds the 2 processors available now", squeezed.Total)
	}
	if squeezed.ChainWant[1] <= 2 {
		t.Errorf("ChainWant[1] = %d, want a desire above the instantaneous headroom", squeezed.ChainWant[1])
	}
	// Explicit thread counts are never adapted: every want is the request.
	explicit, err := PlanAllocation(plan, db, Options{Threads: 6})
	if err != nil {
		t.Fatal(err)
	}
	for ci, w := range explicit.ChainWant {
		if w != 6 {
			t.Errorf("explicit ChainWant[%d] = %d, want 6", ci, w)
		}
	}
}

func TestResizeChainRedistributes(t *testing.T) {
	plan, db := twoChainPlan(t, lera.HashJoin)
	alloc, err := PlanAllocation(plan, db, Options{Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	joinChain := plan.Chains[1]
	alloc.ResizeChain(1, joinChain, 3)
	if alloc.Chain[1] != 3 {
		t.Errorf("Chain[1] = %d, want 3", alloc.Chain[1])
	}
	sum := 0
	for _, id := range joinChain {
		if alloc.Node[id] < 1 {
			t.Errorf("node %d resized to %d threads", id, alloc.Node[id])
		}
		sum += alloc.Node[id]
	}
	if sum < 3 {
		t.Errorf("resized node threads sum to %d < chain total 3", sum)
	}
	// Chain 0 keeps its allocation.
	if alloc.Chain[0] != 8 {
		t.Errorf("Chain[0] = %d, want the untouched 8", alloc.Chain[0])
	}
	for _, id := range plan.Chains[0] {
		if alloc.Node[id] < 1 {
			t.Errorf("chain 0 node %d lost its threads", id)
		}
	}
	// Growing back redistributes again without leaving zeros.
	alloc.ResizeChain(1, joinChain, 8)
	for _, id := range joinChain {
		if alloc.Node[id] < 1 {
			t.Errorf("regrown node %d has %d threads", id, alloc.Node[id])
		}
	}
}

// The engine calls Readmit once per chain of a sequential multi-chain plan,
// in order, with each chain's want — and executes with the granted totals.
func TestEngineReadmitAtChainBoundaries(t *testing.T) {
	plan, db := twoChainPlan(t, lera.HashJoin)
	opts := Options{Processors: 8}
	alloc, err := PlanAllocation(plan, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var calls [][3]int
	opts.Readmit = func(chain, want, min int) int {
		mu.Lock()
		calls = append(calls, [3]int{chain, want, min})
		mu.Unlock()
		return 2 // grant less than asked: the engine must run with it
	}
	res, err := ExecuteAllocated(t.Context(), plan, db, opts, alloc)
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2 {
		t.Fatalf("Readmit called %d times, want once per chain: %v", len(calls), calls)
	}
	for ci, c := range calls {
		if c[0] != ci {
			t.Errorf("call %d renegotiated chain %d", ci, c[0])
		}
		if c[1] != alloc.Want(ci) {
			t.Errorf("call %d asked for %d threads, want ChainWant %d", ci, c[1], alloc.Want(ci))
		}
		if c[2] != len(plan.Chains[ci]) {
			t.Errorf("call %d passed min %d, want the chain's %d nodes", ci, c[2], len(plan.Chains[ci]))
		}
	}
	if res.Alloc.Chain[0] != 2 || res.Alloc.Chain[1] != 2 {
		t.Errorf("executed chain totals = %v, want the granted 2s", res.Alloc.Chain)
	}
	// The caller's allocation is untouched: the engine resized a copy.
	if alloc.Chain[0] == 2 && alloc.Chain[1] == 2 {
		t.Errorf("caller's allocation mutated: %v", alloc.Chain)
	}
	if res.Outputs["Res"] == nil || res.Outputs["Res"].Cardinality() == 0 {
		t.Fatal("renegotiated execution produced no result")
	}
}

// Explicit thread counts and single-chain plans never renegotiate.
func TestEngineReadmitSkipped(t *testing.T) {
	called := 0
	hook := func(chain, want, min int) int { called++; return 1 }

	// Explicit Threads.
	plan, db := twoChainPlan(t, lera.HashJoin)
	opts := Options{Threads: 4, Readmit: hook}
	if _, err := ExecuteContext(t.Context(), plan, db, opts); err != nil {
		t.Fatal(err)
	}
	if called != 0 {
		t.Errorf("Readmit called %d times for an explicit-thread query", called)
	}

	// Single chain.
	jdb, err := workload.NewJoinDB(1_000, 100, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	single, err := jdb.IdealJoinPlan(lera.HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	opts = Options{Readmit: hook}
	if _, err := ExecuteContext(t.Context(), single, jdb.Relations(), opts); err != nil {
		t.Fatal(err)
	}
	if called != 0 {
		t.Errorf("Readmit called %d times for a single-chain plan", called)
	}
}
