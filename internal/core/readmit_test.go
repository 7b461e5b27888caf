package core

import (
	"slices"
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
	// Every pool keeps at least one thread, stores none, and a chain's total
	// is what its pools run.
	check := func(ci, want int) {
		t.Helper()
		sum := 0
		for _, id := range plan.Chains[ci] {
			n := alloc.Node[id]
			if store := plan.Nodes[id].Node.Kind == lera.OpStore; store && n != 0 || !store && n < 1 {
				t.Errorf("chain %d node %d has %d threads", ci, id, n)
			}
			sum += n
		}
		if sum != want || alloc.Chain[ci] != want {
			t.Errorf("chain %d: nodes sum to %d, Chain = %d, want %d", ci, sum, alloc.Chain[ci], want)
		}
	}
	alloc.ResizeChain(1, 3)
	check(1, 3)
	// Chain 0 keeps its allocation.
	check(0, 8)
	// Growing back redistributes again; a grant under the pool count is
	// lifted to one thread per pool.
	alloc.ResizeChain(1, 8)
	check(1, 8)
	alloc.ResizeChain(1, 1)
	check(1, 2)
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
		if c[2] != len(plan.Chains[ci])-1 {
			t.Errorf("call %d passed min %d, want the chain's %d pooled nodes", ci, c[2], len(plan.Chains[ci])-1)
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

// The Readmit floor is the chain's pool count: on the two-chain plan the
// filter chain runs one pool (its store runs in the filter's workers) and
// the join chain two (transmit and join).
func TestReadmitFloorIsPoolCount(t *testing.T) {
	var floors []int
	for _, c := range estimateCases(t) {
		if c.Name != "two-chain opts=0" {
			continue
		}
		plan, err := lera.Bind(c.Graph, c.DB.Resolver())
		if err != nil {
			t.Fatal(err)
		}
		opts := c.Opts
		opts.Readmit = func(_, want, floor int) int {
			floors = append(floors, floor)
			return want
		}
		if _, err := ExecuteContext(t.Context(), plan, c.DB.Relations(), opts); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(floors, []int{1, 2}) {
		t.Errorf("Readmit floors = %v, want [1 2]", floors)
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
