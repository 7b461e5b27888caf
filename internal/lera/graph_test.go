package lera

import (
	"strings"
	"testing"

	"dbs3/internal/relation"
)

// idealJoinGraph builds the paper's IdealJoin plan shape (Figure 10): a
// triggered join of co-partitioned A and B, storing the result.
func idealJoinGraph() *Graph {
	g := NewGraph()
	j := g.JoinBound("join", "A", "B", []string{"unique2"}, []string{"unique2"}, NestedLoop)
	st := g.Store("store", "Res")
	g.ConnectSame(j, st)
	return g
}

// assocJoinGraph builds the paper's AssocJoin plan shape (Figure 11):
// transmit reads B and redistributes its tuples to a pipelined join against
// bound A.
func assocJoinGraph() *Graph {
	g := NewGraph()
	tr := g.Transmit("transmit", "B")
	j := g.JoinPipelined("join", "A", []string{"unique2"}, []string{"unique2"}, NestedLoop)
	st := g.Store("store", "Res")
	g.ConnectHash(tr, j, []string{"unique2"})
	g.ConnectSame(j, st)
	return g
}

func TestGraphBuilderIDsAndNames(t *testing.T) {
	g := NewGraph()
	f := g.Filter("", "A", nil)
	if f.ID != 0 || f.Name != "filter0" {
		t.Errorf("auto name/id = %q/%d", f.Name, f.ID)
	}
	j := g.JoinBound("myjoin", "A", "B", []string{"k"}, []string{"k"}, HashJoin)
	if j.ID != 1 || j.Name != "myjoin" {
		t.Errorf("id/name = %d/%q", j.ID, j.Name)
	}
}

func TestTriggeredDetection(t *testing.T) {
	g := assocJoinGraph()
	if !g.Triggered(0) {
		t.Error("transmit should be triggered (no data inputs)")
	}
	if g.Triggered(1) || g.Triggered(2) {
		t.Error("join and store are pipelined, not triggered")
	}
}

func TestInOutEdges(t *testing.T) {
	g := assocJoinGraph()
	if len(g.Out(0)) != 1 || g.Out(0)[0].To != 1 {
		t.Errorf("Out(0) = %v", g.Out(0))
	}
	if len(g.In(1)) != 1 || g.In(1)[0].From != 0 {
		t.Errorf("In(1) = %v", g.In(1))
	}
	if len(g.In(0)) != 0 {
		t.Error("transmit should have no inputs")
	}
}

func TestTopoOrder(t *testing.T) {
	g := assocJoinGraph()
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[int]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range g.Edges {
		if pos[e.From] > pos[e.To] {
			t.Errorf("edge %d->%d violates order %v", e.From, e.To, order)
		}
	}
}

func TestTopoOrderCycle(t *testing.T) {
	g := NewGraph()
	a := g.FilterPipelined("a", nil)
	b := g.FilterPipelined("b", nil)
	g.ConnectSame(a, b)
	g.ConnectSame(b, a)
	if _, err := g.TopoOrder(); err == nil {
		t.Error("cycle accepted")
	}
}

func TestOpKindStrings(t *testing.T) {
	kinds := []OpKind{OpFilter, OpJoin, OpTransmit, OpStore, OpMap, OpAggregate}
	names := []string{"filter", "join", "transmit", "store", "map", "aggregate"}
	for i, k := range kinds {
		if k.String() != names[i] {
			t.Errorf("kind %d = %q", i, k.String())
		}
	}
	algos := []JoinAlgo{NestedLoop, HashJoin, TempIndex}
	anames := []string{"nested-loop", "hash", "temp-index"}
	for i, a := range algos {
		if a.String() != anames[i] {
			t.Errorf("algo %d = %q", i, a.String())
		}
	}
	aggs := []AggKind{AggCount, AggSum, AggMin, AggMax}
	gnames := []string{"COUNT", "SUM", "MIN", "MAX"}
	for i, a := range aggs {
		if a.String() != gnames[i] {
			t.Errorf("agg %d = %q", i, a.String())
		}
	}
}

func TestMapResolver(t *testing.T) {
	s := relation.MustSchema(relation.Column{Name: "x", Type: relation.TInt})
	r := MapResolver{"A": {Schema: s, Degree: 4}}
	ri, err := r.RelInfo("A")
	if err != nil || ri.Degree != 4 {
		t.Errorf("RelInfo(A) = %+v, %v", ri, err)
	}
	if _, err := r.RelInfo("missing"); err == nil {
		t.Error("missing relation accepted")
	}
}

func TestDotOutput(t *testing.T) {
	g := assocJoinGraph()
	dot := g.Dot()
	for _, want := range []string{"digraph lera", "transmit", "join", "store", "hash(unique2)", "rel_A", "rel_B", "trigger ->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot output missing %q:\n%s", want, dot)
		}
	}
}

func TestDotSanitizesRelNames(t *testing.T) {
	g := NewGraph()
	f := g.Filter("f", "weird name-1", nil)
	st := g.Store("s", "out")
	g.ConnectSame(f, st)
	dot := g.Dot()
	if !strings.Contains(dot, "rel_weird_name_1") {
		t.Errorf("relation name not sanitized:\n%s", dot)
	}
}
