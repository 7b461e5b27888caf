package core

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"dbs3/internal/lera"
	"dbs3/internal/workload"
)

func boundIdealJoin(t *testing.T, d int) (*lera.Plan, *lera.Costs) {
	t.Helper()
	db, err := workload.NewJoinDB(d*50, d*5, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.IdealJoinPlan(lera.NestedLoop)
	if err != nil {
		t.Fatal(err)
	}
	return plan, lera.Estimate(plan, lera.DefaultCostModel())
}

func TestAllocateStep1SqrtRule(t *testing.T) {
	plan, costs := boundIdealJoin(t, 100)
	// W/n + s*n minimized at n = sqrt(W/s).
	a := Allocate(plan, costs, nil, Options{Processors: 1000})
	want := int(math.Round(math.Sqrt(costs.Total / startupCost)))
	if want < 2 {
		t.Fatalf("W=%v too small to exercise step 1", costs.Total)
	}
	if a.Total != want {
		t.Errorf("Total = %d, want %d (W=%v)", a.Total, want, costs.Total)
	}
}

func TestAllocateStep1Caps(t *testing.T) {
	plan, costs := boundIdealJoin(t, 100)
	a := Allocate(plan, costs, nil, Options{Processors: 4})
	if a.Total != 4 {
		t.Errorf("Total = %d, want processor cap 4", a.Total)
	}
	// Explicit thread count wins over the cap.
	b := Allocate(plan, costs, nil, Options{Threads: 32, Processors: 4})
	if b.Total != 32 {
		t.Errorf("Total = %d, want explicit 32", b.Total)
	}
}

func TestAllocateStep3Proportional(t *testing.T) {
	plan, costs := boundIdealJoin(t, 10)
	a := Allocate(plan, costs, nil, Options{Threads: 10, Processors: 10})
	// Join dwarfs store in nested-loop cost; join should get most threads.
	joinID, storeID := 0, 1
	if a.Node[joinID] <= a.Node[storeID] {
		t.Errorf("join=%d store=%d; join should dominate", a.Node[joinID], a.Node[storeID])
	}
	if a.Node[storeID] < 1 {
		t.Error("every operation needs at least one thread")
	}
	sum := a.Node[joinID] + a.Node[storeID]
	if sum < 10 {
		t.Errorf("threads assigned %d < chain total 10", sum)
	}
}

func TestAllocateStep2MultiChain(t *testing.T) {
	// Two chains: filter->store T1, then transmit(T1)->join->store.
	db, err := workload.NewJoinDB(1000, 100, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := lera.NewGraph()
	f := g.Filter("f", "Br", nil)
	s1 := g.Store("s1", "T1")
	g.ConnectSame(f, s1)
	tr := g.Transmit("t", "T1")
	j := g.JoinPipelined("j", "A", []string{"k"}, []string{"k"}, lera.NestedLoop)
	s2 := g.Store("s2", "Res")
	g.ConnectHash(tr, j, []string{"k"})
	g.ConnectSame(j, s2)
	plan, err := lera.Bind(g, db.Resolver())
	if err != nil {
		t.Fatal(err)
	}
	costs := lera.Estimate(plan, lera.DefaultCostModel())
	// Sequential chains: every chain has the whole machine while active.
	s := Allocate(plan, costs, nil, Options{Threads: 16, Processors: 16})
	if len(s.Chain) != 2 {
		t.Fatalf("chains = %v", s.Chain)
	}
	if s.Chain[0] != 16 || s.Chain[1] != 16 {
		t.Errorf("sequential chains = %v, want all 16", s.Chain)
	}
}

func TestAllocateStep4AutoStrategies(t *testing.T) {
	db, err := workload.NewJoinDB(10000, 1000, 20, 1) // heavy skew
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.IdealJoinPlan(lera.NestedLoop)
	if err != nil {
		t.Fatal(err)
	}
	costs := lera.Estimate(plan, lera.DefaultCostModel())
	// Node 0 is the join: its instance cost ~ |A_i| * |B_i|.
	fragCV := func(sizes []int) float64 {
		out := make([]float64, len(sizes))
		for i, s := range sizes {
			out[i] = float64(s) * 50
		}
		return coefficientOfVariation(out)
	}
	inst := []float64{fragCV(db.A.FragmentSizes())}
	a := Allocate(plan, costs, inst, Options{Threads: 8, Processors: 8})
	if a.Strategy[0] != StrategyLPT {
		t.Errorf("skewed triggered join should get LPT, got %v", a.Strategy[0])
	}
	if a.Strategy[1] != StrategyRandom {
		t.Errorf("pipelined store should get Random, got %v", a.Strategy[1])
	}
	// Unskewed: Random everywhere.
	db0, _ := workload.NewJoinDB(10000, 1000, 20, 0)
	plan0, _ := db0.IdealJoinPlan(lera.NestedLoop)
	costs0 := lera.Estimate(plan0, lera.DefaultCostModel())
	inst0 := []float64{fragCV(db0.A.FragmentSizes())}
	a0 := Allocate(plan0, costs0, inst0, Options{Threads: 8, Processors: 8})
	if a0.Strategy[0] != StrategyRandom {
		t.Errorf("unskewed triggered join should get Random, got %v", a0.Strategy[0])
	}
	// Forced override wins.
	af := Allocate(plan0, costs0, inst0, Options{Threads: 8, Processors: 8, Strategy: StrategyLPT})
	if af.Strategy[0] != StrategyLPT || af.Strategy[1] != StrategyLPT {
		t.Error("explicit strategy not applied to all nodes")
	}
}

func TestProportionalInvariants(t *testing.T) {
	shares := Proportional(10, []float64{1, 1, 1, 1})
	sum := 0
	for _, s := range shares {
		if s < 1 {
			t.Fatalf("share < 1: %v", shares)
		}
		sum += s
	}
	if sum != 10 {
		t.Errorf("shares sum to %d, want 10", sum)
	}
	// Fewer threads than entries: everyone still gets 1.
	tight := Proportional(2, []float64{5, 5, 5})
	for _, s := range tight {
		if s < 1 {
			t.Fatalf("tight share < 1: %v", tight)
		}
	}
	for _, c := range []struct {
		n       int
		weights []float64
		want    []int
	}{
		// Proportionality: weight 3 vs 1 with 8 threads -> 6 and 2.
		{8, []float64{3, 1}, []int{6, 2}},
		{10, []float64{1, 9}, []int{1, 9}},
		// Leftover threads go to the largest remainder, not the first index.
		{20, []float64{0.07, 0.93}, []int{1, 19}},
		{5, []float64{2, 1}, []int{3, 2}},
		// Zero weights split evenly and leave no thread unused.
		{4, []float64{0, 0}, []int{2, 2}},
	} {
		if got := Proportional(c.n, c.weights); !slices.Equal(got, c.want) {
			t.Errorf("Proportional(%d, %v) = %v, want %v", c.n, c.weights, got, c.want)
		}
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	if cv := coefficientOfVariation([]float64{5, 5, 5, 5}); cv != 0 {
		t.Errorf("uniform CV = %v", cv)
	}
	if cv := coefficientOfVariation([]float64{1}); cv != 0 {
		t.Errorf("single-element CV = %v", cv)
	}
	if cv := coefficientOfVariation(nil); cv != 0 {
		t.Errorf("nil CV = %v", cv)
	}
	if cv := coefficientOfVariation([]float64{0, 0}); cv != 0 {
		t.Errorf("zero-mean CV = %v", cv)
	}
	skewed := coefficientOfVariation([]float64{100, 1, 1, 1})
	if skewed < 1 {
		t.Errorf("skewed CV = %v, want > 1", skewed)
	}
}

func TestSchedulerDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Processors != runtime.GOMAXPROCS(0) || o.CacheSize != 64 || o.QueueCap != 256 || o.BatchGrain != DefaultBatchGrain || o.Seed != 1 {
		t.Errorf("defaults = %+v", o)
	}
}

// Rahm93: step 1 throttles auto-chosen parallelism by the processors'
// current utilization, raising multi-user throughput.
func TestAllocateUtilizationThrottle(t *testing.T) {
	plan, costs := boundIdealJoin(t, 100)
	idle := Allocate(plan, costs, nil, Options{Processors: 1000})
	busy := Allocate(plan, costs, nil, Options{Processors: 1000, Utilization: 0.75})
	if busy.Total >= idle.Total {
		t.Errorf("75%% utilization should shrink the allocation: %d vs %d", busy.Total, idle.Total)
	}
	want := int(math.Round(float64(idle.Total) * 0.25))
	if want < 1 {
		want = 1
	}
	if busy.Total != want {
		t.Errorf("busy allocation = %d, want %d", busy.Total, want)
	}
	// Explicit thread counts are never throttled.
	explicit := Allocate(plan, costs, nil, Options{Threads: 16, Utilization: 0.9})
	if explicit.Total != 16 {
		t.Errorf("explicit threads throttled to %d", explicit.Total)
	}
}
