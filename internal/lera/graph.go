// Package lera models Lera-par, DBS3's parallel dataflow language
// [Chachaty92]: a plan is a graph whose nodes are operators (filter, join,
// transmit, store, ...) and whose edges carry activations. An activation is
// either a control message (trigger) or a tuple (data); each activation is a
// sequential unit of work. The "extended view" instantiates every node once
// per fragment of its bound relation (§2, Figure 1); instantiation is done
// by the execution engine, this package holds the static description.
package lera

import (
	"fmt"

	"dbs3/internal/partition"
	"dbs3/internal/relation"
)

// OpKind identifies the operator implemented by a node.
type OpKind int

// Operator kinds. Filter and Transmit read a bound (statically partitioned)
// relation and are triggered by a control activation; Join is triggered when
// both operands are bound and co-partitioned (IdealJoin), or pipelined when
// the probe side arrives by data activations (AssocJoin); Store materializes
// its input, ending a pipeline chain; Map projects; Aggregate groups.
const (
	OpFilter OpKind = iota
	OpJoin
	OpTransmit
	OpStore
	OpMap
	OpAggregate
)

// String names the operator kind.
func (k OpKind) String() string {
	switch k {
	case OpFilter:
		return "filter"
	case OpJoin:
		return "join"
	case OpTransmit:
		return "transmit"
	case OpStore:
		return "store"
	case OpMap:
		return "map"
	case OpAggregate:
		return "aggregate"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// JoinAlgo selects the join algorithm of a join node. The paper uses nested
// loop when it wants to magnify execution time and a temporary index
// ("build indexes on the fly") for the larger databases. The engine has two
// implementations: nested loop, and one index built on the fly per build
// fragment — a hash table — which HashJoin and TempIndex both select; the
// two names stay so that plans, options and the wire keep the paper's
// vocabulary.
type JoinAlgo int

// Join algorithms.
const (
	NestedLoop JoinAlgo = iota
	HashJoin
	TempIndex
)

// String names the join algorithm.
func (a JoinAlgo) String() string {
	switch a {
	case NestedLoop:
		return "nested-loop"
	case HashJoin:
		return "hash"
	case TempIndex:
		return "temp-index"
	default:
		return fmt.Sprintf("JoinAlgo(%d)", int(a))
	}
}

// AggKind selects an aggregate function.
type AggKind int

// Aggregate functions.
const (
	AggCount AggKind = iota
	AggSum
	AggMin
	AggMax
)

// String names the aggregate.
func (a AggKind) String() string {
	switch a {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return fmt.Sprintf("AggKind(%d)", int(a))
	}
}

// Merge returns the aggregate that combines partial results of a into the
// global result: COUNT partials are counts already, so they add like SUM;
// SUM, MIN and MAX are self-merging. This is the scatter-gather rewrite a
// distributed coordinator applies — each shard runs the original aggregate
// over its fragment, and the merge aggregate folds the per-shard rows
// group-wise into the answer a single node would have produced.
func (a AggKind) Merge() AggKind {
	if a == AggCount {
		return AggSum
	}
	return a
}

// RouteKind says how a data edge routes tuples to consumer instances.
type RouteKind int

const (
	// RouteSame sends producer instance i's output to consumer instance i
	// (no redistribution; degrees must match).
	RouteSame RouteKind = iota
	// RouteHash hashes the named columns of the tuple and routes to
	// instance hash % consumerDegree (dynamic redistribution).
	RouteHash
)

// Node is one operator of a Lera-par plan. Only the fields relevant to Kind
// are set; Validate enforces the per-kind contract.
type Node struct {
	ID   int
	Name string
	Kind OpKind

	// Rel is the bound base relation of filter/transmit nodes; instance i
	// reads fragment i.
	Rel string
	// BuildRel is the join build side (always bound in this model).
	BuildRel string
	// ProbeRel is the join probe side when it is bound and co-partitioned
	// (triggered join); empty when the probe arrives by pipeline.
	ProbeRel string
	// BuildKey/ProbeKey are the equi-join attributes on each side.
	BuildKey, ProbeKey []string
	// Algo selects the join algorithm.
	Algo JoinAlgo
	// Pred filters tuples (filter nodes; optional residual on map nodes).
	Pred Predicate
	// Cols is the projection list of map nodes.
	Cols []string
	// GroupBy/Agg/AggCol configure aggregate nodes. AggCol is empty for
	// COUNT.
	GroupBy []string
	Agg     AggKind
	AggCol  string
	// As is the output relation name of store nodes.
	As string
	// DegreeOverride forces the node's instance count; 0 means inherit
	// (bound relation degree, or producer degree through RouteSame edges).
	DegreeOverride int
}

// Edge is a data activator between two nodes. Control (trigger) activations
// are implicit: every node without incoming data edges is triggered.
type Edge struct {
	From, To  int
	Route     RouteKind
	RouteCols []string
}

// Graph is a Lera-par plan.
type Graph struct {
	Nodes []*Node
	Edges []*Edge
}

// NewGraph returns an empty plan.
func NewGraph() *Graph { return &Graph{} }

// add appends a node, assigning its id.
func (g *Graph) add(n *Node) *Node {
	n.ID = len(g.Nodes)
	if n.Name == "" {
		n.Name = fmt.Sprintf("%s%d", n.Kind, n.ID)
	}
	g.Nodes = append(g.Nodes, n)
	return n
}

// Filter adds a filter node over the bound relation rel.
func (g *Graph) Filter(name, rel string, pred Predicate) *Node {
	if pred == nil {
		pred = True{}
	}
	return g.add(&Node{Name: name, Kind: OpFilter, Rel: rel, Pred: pred})
}

// FilterPipelined adds a filter over a pipelined input stream (a residual
// predicate after a join, for instance).
func (g *Graph) FilterPipelined(name string, pred Predicate) *Node {
	if pred == nil {
		pred = True{}
	}
	return g.add(&Node{Name: name, Kind: OpFilter, Pred: pred})
}

// Transmit adds a transmit node reading the bound relation rel; its output
// edges redistribute the tuples.
func (g *Graph) Transmit(name, rel string) *Node {
	return g.add(&Node{Name: name, Kind: OpTransmit, Rel: rel})
}

// JoinBound adds a triggered join of two bound, co-partitioned relations
// (the paper's IdealJoin shape).
func (g *Graph) JoinBound(name, buildRel, probeRel string, buildKey, probeKey []string, algo JoinAlgo) *Node {
	return g.add(&Node{Kind: OpJoin, Name: name, BuildRel: buildRel, ProbeRel: probeRel, BuildKey: buildKey, ProbeKey: probeKey, Algo: algo})
}

// JoinPipelined adds a join whose probe side arrives by data activations
// (the paper's AssocJoin shape). The build side is the bound relation.
func (g *Graph) JoinPipelined(name, buildRel string, buildKey, probeKey []string, algo JoinAlgo) *Node {
	return g.add(&Node{Kind: OpJoin, Name: name, BuildRel: buildRel, BuildKey: buildKey, ProbeKey: probeKey, Algo: algo})
}

// Map adds a projection node (pipelined input).
func (g *Graph) Map(name string, cols []string) *Node {
	return g.add(&Node{Kind: OpMap, Name: name, Cols: cols})
}

// Aggregate adds a grouped-aggregate node (pipelined input).
func (g *Graph) Aggregate(name string, groupBy []string, agg AggKind, aggCol string) *Node {
	return g.add(&Node{Kind: OpAggregate, Name: name, GroupBy: groupBy, Agg: agg, AggCol: aggCol})
}

// Store adds a materialization node writing the relation named as.
func (g *Graph) Store(name, as string) *Node {
	return g.add(&Node{Kind: OpStore, Name: name, As: as})
}

// ConnectSame adds a data edge with instance-to-instance routing.
func (g *Graph) ConnectSame(from, to *Node) *Edge {
	e := &Edge{From: from.ID, To: to.ID, Route: RouteSame}
	g.Edges = append(g.Edges, e)
	return e
}

// ConnectHash adds a data edge redistributing tuples by hashing cols.
func (g *Graph) ConnectHash(from, to *Node, cols []string) *Edge {
	e := &Edge{From: from.ID, To: to.ID, Route: RouteHash, RouteCols: append([]string(nil), cols...)}
	g.Edges = append(g.Edges, e)
	return e
}

// In returns the data edges entering node id.
func (g *Graph) In(id int) []*Edge {
	var out []*Edge
	for _, e := range g.Edges {
		if e.To == id {
			out = append(out, e)
		}
	}
	return out
}

// Out returns the data edges leaving node id.
func (g *Graph) Out(id int) []*Edge {
	var out []*Edge
	for _, e := range g.Edges {
		if e.From == id {
			out = append(out, e)
		}
	}
	return out
}

// Triggered reports whether a node starts on a control activation, i.e. has
// no incoming data edges (§2, Figure 2).
func (g *Graph) Triggered(id int) bool { return len(g.In(id)) == 0 }

// TopoOrder returns the node ids in a topological order of the data edges,
// or an error if the plan is cyclic.
func (g *Graph) TopoOrder() ([]int, error) {
	indeg := make([]int, len(g.Nodes))
	for _, e := range g.Edges {
		indeg[e.To]++
	}
	var queue, order []int
	for i := range g.Nodes {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, e := range g.Out(id) {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	if len(order) != len(g.Nodes) {
		return nil, fmt.Errorf("lera: plan has a cycle")
	}
	return order, nil
}

// RelInfo describes a base (or previously materialized) relation to the
// validator and the engine.
type RelInfo struct {
	Schema *relation.Schema
	Degree int
	// FragSizes holds per-fragment cardinalities; optional (used by cost
	// estimation and LPT ordering).
	FragSizes []int
	// Part is the relation's static partitioning function; optional. When
	// present, the validator checks join co-partitioning against it and
	// pipelined joins route probe tuples with it.
	Part partition.Func
}

// Resolver supplies relation metadata during validation and binding.
type Resolver interface {
	// RelInfo returns metadata for the named relation.
	RelInfo(name string) (RelInfo, error)
}

// MapResolver is a Resolver backed by a map.
type MapResolver map[string]RelInfo

// RelInfo implements Resolver.
func (m MapResolver) RelInfo(name string) (RelInfo, error) {
	ri, ok := m[name]
	if !ok {
		return RelInfo{}, fmt.Errorf("lera: unknown relation %q", name)
	}
	return ri, nil
}
