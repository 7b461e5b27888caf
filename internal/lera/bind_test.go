package lera

import (
	"strings"
	"testing"

	"dbs3/internal/partition"
	"dbs3/internal/relation"
)

// wiscResolver builds a resolver with Wisconsin relations A and B, both
// partitioned by hash on unique2 with the given degree.
func wiscResolver(t *testing.T, degree int) MapResolver {
	t.Helper()
	pa, err := partition.NewHash(relation.WisconsinSchema, []string{"unique2"}, degree)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := partition.NewHash(relation.WisconsinSchema, []string{"unique2"}, degree)
	if err != nil {
		t.Fatal(err)
	}
	return MapResolver{
		"A": {Schema: relation.WisconsinSchema, Degree: degree, Part: pa},
		"B": {Schema: relation.WisconsinSchema, Degree: degree, Part: pb},
	}
}

func TestBindIdealJoin(t *testing.T) {
	g := idealJoinGraph()
	p, err := Bind(g, wiscResolver(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	join := p.Nodes[0]
	if join.Degree != 8 {
		t.Errorf("join degree = %d", join.Degree)
	}
	if join.OutSchema.Len() != 2*relation.WisconsinSchema.Len() {
		t.Errorf("join output arity = %d", join.OutSchema.Len())
	}
	// Colliding column names must be prefixed with relation names.
	if _, ok := join.OutSchema.Index("A.unique2"); !ok {
		t.Errorf("expected A.unique2 in %s", join.OutSchema)
	}
	if _, ok := join.OutSchema.Index("B.unique2"); !ok {
		t.Errorf("expected B.unique2 in %s", join.OutSchema)
	}
	store := p.Nodes[1]
	if store.Degree != 8 || store.OutSchema != nil {
		t.Errorf("store degree=%d out=%v", store.Degree, store.OutSchema)
	}
	if p.Outputs["Res"] != 1 {
		t.Errorf("Outputs = %v", p.Outputs)
	}
	if len(p.Chains) != 1 || len(p.Chains[0]) != 2 {
		t.Errorf("Chains = %v", p.Chains)
	}
}

func TestBindAssocJoin(t *testing.T) {
	g := assocJoinGraph()
	p, err := Bind(g, wiscResolver(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	join := p.Nodes[1]
	if join.Router == nil {
		t.Fatal("pipelined join must have a router")
	}
	if join.Router.Degree() != 8 {
		t.Errorf("router degree = %d", join.Router.Degree())
	}
	// Router must be A's own partitioning function so probes co-locate.
	if join.Router.Signature() != "hash/8" {
		t.Errorf("router signature = %s", join.Router.Signature())
	}
	// The probe edge's routing columns must have been resolved.
	if len(p.Edges[0].RouteColsIdx) != 1 {
		t.Errorf("edge route cols = %v", p.Edges[0].RouteColsIdx)
	}
}

func TestBindAssocJoinDefaultsEdgeRouteCols(t *testing.T) {
	g := NewGraph()
	tr := g.Transmit("transmit", "B")
	j := g.JoinPipelined("join", "A", []string{"unique2"}, []string{"unique2"}, NestedLoop)
	st := g.Store("store", "Res")
	g.ConnectHash(tr, j, nil) // no explicit cols: binder fills in probe key
	g.ConnectSame(j, st)
	p, err := Bind(g, wiscResolver(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Edges[0].RouteCols; len(got) != 1 || got[0] != "unique2" {
		t.Errorf("defaulted route cols = %v", got)
	}
	if len(p.Edges[0].RouteColsIdx) != 1 {
		t.Errorf("bound route cols = %v", p.Edges[0].RouteColsIdx)
	}
}

func TestBindRejectsDegreeMismatch(t *testing.T) {
	pa, _ := partition.NewHash(relation.WisconsinSchema, []string{"unique2"}, 8)
	pb, _ := partition.NewHash(relation.WisconsinSchema, []string{"unique2"}, 4)
	res := MapResolver{
		"A": {Schema: relation.WisconsinSchema, Degree: 8, Part: pa},
		"B": {Schema: relation.WisconsinSchema, Degree: 4, Part: pb},
	}
	if _, err := Bind(idealJoinGraph(), res); err == nil || !strings.Contains(err.Error(), "co-partitioning") {
		t.Errorf("degree mismatch not rejected: %v", err)
	}
}

func TestBindRejectsIncompatiblePartitioning(t *testing.T) {
	pa, _ := partition.NewHash(relation.WisconsinSchema, []string{"unique2"}, 8)
	pb, _ := partition.NewMod(relation.WisconsinSchema, "unique2", 8)
	res := MapResolver{
		"A": {Schema: relation.WisconsinSchema, Degree: 8, Part: pa},
		"B": {Schema: relation.WisconsinSchema, Degree: 8, Part: pb},
	}
	if _, err := Bind(idealJoinGraph(), res); err == nil || !strings.Contains(err.Error(), "incompatible") {
		t.Errorf("incompatible partitioning not rejected: %v", err)
	}
}

func TestBindRejectsWrongPartitioningKey(t *testing.T) {
	pa, _ := partition.NewHash(relation.WisconsinSchema, []string{"unique1"}, 8)
	res := wiscResolver(t, 8)
	res["A"] = RelInfo{Schema: relation.WisconsinSchema, Degree: 8, Part: pa}
	// Triggered join: A partitioned on unique1, join key unique2.
	if _, err := Bind(idealJoinGraph(), res); err == nil {
		t.Error("wrong build partitioning key accepted for triggered join")
	}
	// Pipelined join: same problem must be caught when building the router.
	if _, err := Bind(assocJoinGraph(), res); err == nil {
		t.Error("wrong build partitioning key accepted for pipelined join")
	}
}

func TestBindErrors(t *testing.T) {
	res := wiscResolver(t, 4)
	cases := []struct {
		name  string
		build func() *Graph
	}{
		{"empty plan", func() *Graph { return NewGraph() }},
		{"unknown relation", func() *Graph {
			g := NewGraph()
			f := g.Filter("f", "Missing", nil)
			g.ConnectSame(f, g.Store("s", "out"))
			return g
		}},
		{"filter without input", func() *Graph {
			g := NewGraph()
			g.add(&Node{Kind: OpFilter, Name: "f"})
			return g
		}},
		{"bad predicate column", func() *Graph {
			g := NewGraph()
			f := g.Filter("f", "A", ColConst{Col: "nope", Op: EQ, Val: relation.Int(1)})
			g.ConnectSame(f, g.Store("s", "out"))
			return g
		}},
		{"join missing build", func() *Graph {
			g := NewGraph()
			g.add(&Node{Kind: OpJoin, Name: "j", BuildKey: []string{"k"}, ProbeKey: []string{"k"}})
			return g
		}},
		{"join key arity mismatch", func() *Graph {
			g := NewGraph()
			g.JoinBound("j", "A", "B", []string{"unique2", "unique1"}, []string{"unique2"}, NestedLoop)
			return g
		}},
		{"join bad build key", func() *Graph {
			g := NewGraph()
			g.JoinBound("j", "A", "B", []string{"nope"}, []string{"unique2"}, NestedLoop)
			return g
		}},
		{"join bad probe key", func() *Graph {
			g := NewGraph()
			g.JoinBound("j", "A", "B", []string{"unique2"}, []string{"nope"}, NestedLoop)
			return g
		}},
		{"join key type mismatch", func() *Graph {
			g := NewGraph()
			g.JoinBound("j", "A", "B", []string{"unique2"}, []string{"stringu1"}, NestedLoop)
			return g
		}},
		{"pipelined join without input", func() *Graph {
			g := NewGraph()
			g.JoinPipelined("j", "A", []string{"unique2"}, []string{"unique2"}, NestedLoop)
			return g
		}},
		{"pipelined join with RouteSame probe", func() *Graph {
			g := NewGraph()
			tr := g.Transmit("t", "B")
			j := g.JoinPipelined("j", "A", []string{"unique2"}, []string{"unique2"}, NestedLoop)
			g.ConnectSame(tr, j)
			return g
		}},
		{"pipelined join with wrong route cols", func() *Graph {
			g := NewGraph()
			tr := g.Transmit("t", "B")
			j := g.JoinPipelined("j", "A", []string{"unique2"}, []string{"unique2"}, NestedLoop)
			g.ConnectHash(tr, j, []string{"unique1"})
			return g
		}},
		{"store without input", func() *Graph {
			g := NewGraph()
			g.Store("s", "out")
			return g
		}},
		{"store without name", func() *Graph {
			g := NewGraph()
			f := g.Filter("f", "A", nil)
			g.ConnectSame(f, g.Store("s", ""))
			return g
		}},
		{"store with outgoing edge", func() *Graph {
			g := NewGraph()
			f := g.Filter("f", "A", nil)
			st := g.Store("s", "out")
			g.ConnectSame(f, st)
			g.ConnectSame(st, g.FilterPipelined("t", nil))
			return g
		}},
		{"map without input", func() *Graph {
			g := NewGraph()
			g.Map("m", []string{"unique2"})
			return g
		}},
		{"map without columns", func() *Graph {
			g := NewGraph()
			f := g.Filter("f", "A", nil)
			g.ConnectSame(f, g.Map("m", nil))
			return g
		}},
		{"map bad column", func() *Graph {
			g := NewGraph()
			f := g.Filter("f", "A", nil)
			m := g.Map("m", []string{"nope"})
			g.ConnectSame(f, m)
			g.ConnectSame(m, g.Store("s", "out"))
			return g
		}},
		{"aggregate without input", func() *Graph {
			g := NewGraph()
			g.Aggregate("a", []string{"ten"}, AggCount, "")
			return g
		}},
		{"aggregate COUNT with column", func() *Graph {
			g := NewGraph()
			f := g.Filter("f", "A", nil)
			a := g.Aggregate("a", []string{"ten"}, AggCount, "unique1")
			g.ConnectSame(f, a)
			g.ConnectSame(a, g.Store("s", "out"))
			return g
		}},
		{"aggregate SUM on string", func() *Graph {
			g := NewGraph()
			f := g.Filter("f", "A", nil)
			a := g.Aggregate("a", []string{"ten"}, AggSum, "stringu1")
			g.ConnectSame(f, a)
			g.ConnectSame(a, g.Store("s", "out"))
			return g
		}},
		{"aggregate bad group col", func() *Graph {
			g := NewGraph()
			f := g.Filter("f", "A", nil)
			a := g.Aggregate("a", []string{"nope"}, AggCount, "")
			g.ConnectSame(f, a)
			g.ConnectSame(a, g.Store("s", "out"))
			return g
		}},
		{"aggregate hash input on wrong key", func() *Graph {
			g := NewGraph()
			f := g.Filter("f", "A", nil)
			a := g.Aggregate("a", []string{"ten"}, AggCount, "")
			g.ConnectHash(f, a, []string{"twenty"})
			g.ConnectSame(a, g.Store("s", "out"))
			return g
		}},
		{"hash edge routing on no columns", func() *Graph {
			g := NewGraph()
			f := g.Filter("f", "A", nil)
			g.ConnectHash(f, g.Store("s", "out"), nil)
			return g
		}},
		{"duplicate store output", func() *Graph {
			g := NewGraph()
			f1 := g.Filter("f1", "A", nil)
			g.ConnectSame(f1, g.Store("s1", "out"))
			f2 := g.Filter("f2", "B", nil)
			g.ConnectSame(f2, g.Store("s2", "out"))
			return g
		}},
		{"store shadows base relation", func() *Graph {
			g := NewGraph()
			f := g.Filter("f", "A", nil)
			g.ConnectSame(f, g.Store("s", "B"))
			return g
		}},
	}
	for _, c := range cases {
		if _, err := Bind(c.build(), res); err == nil {
			t.Errorf("%s: Bind should fail", c.name)
		}
	}
}

func TestBindMapAndAggregateSchemas(t *testing.T) {
	g := NewGraph()
	f := g.Filter("f", "A", ColConst{Col: "ten", Op: EQ, Val: relation.Int(3)})
	m := g.Map("m", []string{"unique2", "stringu1"})
	a := g.Aggregate("agg", []string{"stringu1"}, AggCount, "")
	st := g.Store("s", "out")
	g.ConnectSame(f, m)
	g.ConnectHash(m, a, []string{"stringu1"})
	g.ConnectSame(a, st)
	p, err := Bind(g, wiscResolver(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Nodes[m.ID].OutSchema.String(); got != "(unique2 INT, stringu1 STRING)" {
		t.Errorf("map schema = %s", got)
	}
	if got := p.Nodes[a.ID].OutSchema.String(); got != "(stringu1 STRING, count INT)" {
		t.Errorf("agg schema = %s", got)
	}
	// SUM schema naming.
	g2 := NewGraph()
	f2 := g2.Filter("f", "A", nil)
	a2 := g2.Aggregate("agg", []string{"ten"}, AggSum, "unique1")
	g2.ConnectHash(f2, a2, []string{"ten"})
	g2.ConnectSame(a2, g2.Store("s", "out"))
	p2, err := Bind(g2, wiscResolver(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p2.Nodes[a2.ID].OutSchema.Index("SUM_unique1"); !ok {
		t.Errorf("sum schema = %s", p2.Nodes[a2.ID].OutSchema)
	}
}

func TestBindMultiChainPlan(t *testing.T) {
	// Chain 1: filter A -> store T1. Chain 2: join T1 with B (pipelined via
	// transmit reading T1).
	g := NewGraph()
	f := g.Filter("f", "A", ColConst{Col: "two", Op: EQ, Val: relation.Int(0)})
	s1 := g.Store("s1", "T1")
	g.ConnectSame(f, s1)
	tr := g.Transmit("t", "T1")
	j := g.JoinPipelined("j", "B", []string{"unique2"}, []string{"unique2"}, HashJoin)
	s2 := g.Store("s2", "Res")
	g.ConnectHash(tr, j, []string{"unique2"})
	g.ConnectSame(j, s2)
	p, err := Bind(g, wiscResolver(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Chains) != 2 {
		t.Fatalf("Chains = %v", p.Chains)
	}
	// Producer chain (containing node f) must come first.
	first := p.Chains[0]
	foundF := false
	for _, id := range first {
		if id == f.ID {
			foundF = true
		}
	}
	if !foundF {
		t.Errorf("producer chain should be ordered first: %v", p.Chains)
	}
	// Transmit over the materialized T1 inherits its degree.
	if p.Nodes[tr.ID].Degree != 4 {
		t.Errorf("transmit degree = %d", p.Nodes[tr.ID].Degree)
	}
}

func TestBindRejectsReadingOwnChainOutput(t *testing.T) {
	g := NewGraph()
	f := g.Filter("f", "A", nil)
	st := g.Store("s", "T1")
	g.ConnectSame(f, st)
	// Join in the same chain (connected by an edge) reading T1.
	j := g.JoinPipelined("j", "T1", []string{"unique2"}, []string{"unique2"}, HashJoin)
	g.ConnectHash(f, j, []string{"unique2"})
	g.ConnectSame(j, g.Store("s2", "Res"))
	if _, err := Bind(g, wiscResolver(t, 4)); err == nil {
		t.Error("reading own chain's materialization accepted")
	}
}

func TestBindRouteSameDegreeMismatch(t *testing.T) {
	g := NewGraph()
	f := g.Filter("f", "A", nil)
	st := g.Store("s", "out")
	st.DegreeOverride = 2 // A has degree 4
	g.ConnectSame(f, st)
	if _, err := Bind(g, wiscResolver(t, 4)); err == nil {
		t.Error("RouteSame degree mismatch accepted")
	}
}

func TestBindDegreeOverrideWithHashRoute(t *testing.T) {
	g := NewGraph()
	f := g.Filter("f", "A", nil)
	st := g.Store("s", "out")
	st.DegreeOverride = 2
	g.ConnectHash(f, st, []string{"unique2"})
	p, err := Bind(g, wiscResolver(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if p.Nodes[st.ID].Degree != 2 {
		t.Errorf("store degree = %d, want 2", p.Nodes[st.ID].Degree)
	}
	// A hash edge into a non-join node routes with a hash at the consumer's
	// degree; a node with no hash-routed input has no router.
	if r := p.Nodes[st.ID].Router; r == nil || r.Signature() != "hash/2" {
		t.Errorf("store router = %v, want hash/2", r)
	}
	if r := p.Nodes[f.ID].Router; r != nil {
		t.Errorf("filter router = %v, want none", r)
	}
}
