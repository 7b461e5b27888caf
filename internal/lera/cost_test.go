package lera

import (
	"testing"

	"dbs3/internal/partition"
	"dbs3/internal/relation"
)

// sizedResolver gives A and B real fragment sizes so cost estimates use true
// cardinalities.
func sizedResolver(t *testing.T, degree, aCard, bCard int) MapResolver {
	t.Helper()
	res := wiscResolver(t, degree)
	mk := func(total int) []int {
		s := make([]int, degree)
		for i := range s {
			s[i] = total / degree
		}
		return s
	}
	a := res["A"]
	a.FragSizes = mk(aCard)
	res["A"] = a
	b := res["B"]
	b.FragSizes = mk(bCard)
	res["B"] = b
	return res
}

func TestEstimateIdealJoinNestedLoop(t *testing.T) {
	res := sizedResolver(t, 10, 1000, 100)
	p, err := Bind(idealJoinGraph(), res)
	if err != nil {
		t.Fatal(err)
	}
	c := Estimate(p, DefaultCostModel())
	// Nested loop over 10 fragments: 10 * (100 * 10) = 10_000 pairs.
	if c.Node[0] != 10000 {
		t.Errorf("join cost = %v, want 10000", c.Node[0])
	}
	// Store cost = probe cardinality estimate (100 tuples).
	if c.Node[1] != 100 {
		t.Errorf("store cost = %v, want 100", c.Node[1])
	}
	if c.Total != c.Chain[0] {
		t.Errorf("total %v != single chain %v", c.Total, c.Chain[0])
	}
}

func TestEstimateHigherPartitioningCheapensNestedLoop(t *testing.T) {
	low, _ := Bind(idealJoinGraph(), sizedResolver(t, 10, 1000, 100))
	high, _ := Bind(idealJoinGraph(), sizedResolver(t, 100, 1000, 100))
	cl := Estimate(low, DefaultCostModel())
	ch := Estimate(high, DefaultCostModel())
	if ch.Node[0] >= cl.Node[0] {
		t.Errorf("nested loop with d=100 (%v) should be cheaper than d=10 (%v)", ch.Node[0], cl.Node[0])
	}
	// Exactly 10x cheaper: cost ~ |A||B|/d.
	if cl.Node[0]/ch.Node[0] != 10 {
		t.Errorf("ratio = %v, want 10", cl.Node[0]/ch.Node[0])
	}
}

func TestEstimateHashJoinIndependentOfPartitioning(t *testing.T) {
	g := NewGraph()
	g.JoinBound("j", "A", "B", []string{"unique2"}, []string{"unique2"}, HashJoin)
	low, _ := Bind(g, sizedResolver(t, 10, 1000, 100))
	g2 := NewGraph()
	g2.JoinBound("j", "A", "B", []string{"unique2"}, []string{"unique2"}, HashJoin)
	high, _ := Bind(g2, sizedResolver(t, 100, 1000, 100))
	cl := Estimate(low, DefaultCostModel())
	ch := Estimate(high, DefaultCostModel())
	if cl.Node[0] != ch.Node[0] {
		t.Errorf("hash join cost should not depend on d: %v vs %v", cl.Node[0], ch.Node[0])
	}
}

func TestEstimateAssocJoinChains(t *testing.T) {
	res := sizedResolver(t, 10, 1000, 100)
	p, err := Bind(assocJoinGraph(), res)
	if err != nil {
		t.Fatal(err)
	}
	c := Estimate(p, DefaultCostModel())
	// Transmit moves 100 tuples.
	if c.Node[0] != 100 {
		t.Errorf("transmit cost = %v", c.Node[0])
	}
	// Pipelined nested-loop join: (1000/10)*(100/10)*10 = 10000.
	if c.Node[1] != 10000 {
		t.Errorf("join cost = %v", c.Node[1])
	}
	for _, id := range []int{0, 1, 2} {
		if c.Node[id] <= 0 {
			t.Errorf("node %d has non-positive cost", id)
		}
	}
}

func TestEstimateFilterSelectivity(t *testing.T) {
	res := sizedResolver(t, 4, 1000, 100)
	g := NewGraph()
	f := g.Filter("f", "A", ColConst{Col: "two", Op: EQ, Val: relation.Int(0)})
	g.ConnectSame(f, g.Store("s", "out"))
	p, err := Bind(g, res)
	if err != nil {
		t.Fatal(err)
	}
	c := Estimate(p, DefaultCostModel())
	if c.OutCard[f.ID] != 500 {
		t.Errorf("filtered cardinality = %v, want 500 (default selectivity)", c.OutCard[f.ID])
	}
	// A TRUE filter passes everything.
	g2 := NewGraph()
	f2 := g2.Filter("f", "A", nil)
	g2.ConnectSame(f2, g2.Store("s", "out"))
	p2, _ := Bind(g2, res)
	c2 := Estimate(p2, DefaultCostModel())
	if c2.OutCard[f2.ID] != 1000 {
		t.Errorf("scan cardinality = %v, want 1000", c2.OutCard[f2.ID])
	}
}

func TestEstimateWithoutStatistics(t *testing.T) {
	// No FragSizes: estimator assumes nominal 1000 tuples per fragment.
	res := wiscResolver(t, 4)
	p, err := Bind(idealJoinGraph(), res)
	if err != nil {
		t.Fatal(err)
	}
	c := Estimate(p, DefaultCostModel())
	if c.Total <= 0 {
		t.Error("costs should be positive without statistics")
	}
}

// TestEstimateEmptyRelation: all-zero fragment sizes are an empty relation,
// not missing statistics — it costs nothing and yields nothing.
func TestEstimateEmptyRelation(t *testing.T) {
	res := wiscResolver(t, 8)
	a := res["A"]
	a.FragSizes = make([]int, 8)
	res["A"] = a
	g := NewGraph()
	f := g.Filter("f", "A", ColConst{Col: "two", Op: EQ, Val: relation.Int(0)})
	g.ConnectSame(f, g.Store("s", "out"))
	p, err := Bind(g, res)
	if err != nil {
		t.Fatal(err)
	}
	c := Estimate(p, DefaultCostModel())
	if c.OutCard[f.ID] != 0 || c.Node[f.ID] != 0 {
		t.Errorf("empty relation: OutCard %v, Node %v; want 0 and 0", c.OutCard[f.ID], c.Node[f.ID])
	}
}

func TestEstimateMapAggregate(t *testing.T) {
	g := NewGraph()
	f := g.Filter("f", "A", nil)
	m := g.Map("m", []string{"unique2"})
	a := g.Aggregate("agg", []string{"unique2"}, AggCount, "")
	g.ConnectSame(f, m)
	g.ConnectHash(m, a, []string{"unique2"})
	g.ConnectSame(a, g.Store("s", "out"))
	p, err := Bind(g, sizedResolver(t, 4, 1000, 100))
	if err != nil {
		t.Fatal(err)
	}
	c := Estimate(p, DefaultCostModel())
	if c.Node[m.ID] != 1000 {
		t.Errorf("map cost = %v", c.Node[m.ID])
	}
	if c.Node[a.ID] != 2000 {
		t.Errorf("agg cost = %v (AggTuple=2)", c.Node[a.ID])
	}
}

// partitionKeyCheck: the resolver must expose partition functions for the
// co-partitioning validation to be meaningful; make sure test helper does.
func TestSizedResolverHasPartitioning(t *testing.T) {
	res := sizedResolver(t, 4, 100, 10)
	ri, _ := res.RelInfo("A")
	if ri.Part == nil {
		t.Fatal("helper must set Part")
	}
	var _ partition.Func = ri.Part
}
