package lera

import (
	"fmt"
	"slices"

	"dbs3/internal/partition"
	"dbs3/internal/relation"
)

// BoundNode is a plan node after validation: schemas inferred, predicates
// and keys resolved to column positions, degree of parallelism of the
// extended view fixed.
type BoundNode struct {
	Node *Node
	// Degree is the node's instance count in the extended view.
	Degree int
	// InSchema is the schema of pipelined input tuples (nil for purely
	// triggered nodes whose inputs are bound relations).
	InSchema *relation.Schema
	// OutSchema is the schema of emitted tuples (nil for store nodes, which
	// terminate the flow).
	OutSchema *relation.Schema
	// Pred is the bound filter predicate (filter nodes).
	Pred Predicate
	// Rel/Build/Probe carry the metadata of bound relations.
	Rel, Build, Probe RelInfo
	// BuildKeyIdx/ProbeKeyIdx are join key positions. ProbeKeyIdx indexes
	// either ProbeRel's schema (triggered join) or InSchema (pipelined).
	BuildKeyIdx, ProbeKeyIdx []int
	// Router routes hash-redistributed tuples into this node's instances. A
	// pipelined join's is the build relation's own partitioning function, so
	// probe tuples land with their matching build fragment; any other node's
	// is a hash at its degree. Nil for nodes with no hash-routed input.
	Router partition.Func
	// ColsIdx are projection positions (map nodes).
	ColsIdx []int
	// GroupIdx/AggIdx are aggregate positions; AggIdx is -1 for COUNT.
	GroupIdx []int
	AggIdx   int
}

// BoundEdge is a data edge after validation, with routing columns resolved
// against the producer's output schema.
type BoundEdge struct {
	Edge         *Edge
	RouteColsIdx []int
}

// Plan is a validated, executable Lera-par plan.
type Plan struct {
	Graph *Graph
	Nodes []*BoundNode
	Edges []*BoundEdge
	// Order is a topological order of node ids.
	Order []int
	// Chains lists the plan's subqueries (pipeline chains): the weakly
	// connected components of the data-edge graph, each ordered
	// topologically. Chains[i] must run before Chains[j] when j reads a
	// relation that a store node of i materializes (§3, Figure 5).
	Chains [][]int
	// Outputs maps store-output relation names to the producing node id.
	Outputs map[string]int
	// params is the `?` placeholder count, computed once at Bind (see
	// NumParams).
	params int
}

// Bind validates the plan against base-relation metadata and returns the
// executable form. All schema inference, key resolution, degree checks and
// chain decomposition happen here; execution assumes a valid plan.
func Bind(g *Graph, res Resolver) (*Plan, error) {
	if len(g.Nodes) == 0 {
		return nil, fmt.Errorf("lera: empty plan")
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	chains, err := chainOrder(g)
	if err != nil {
		return nil, err
	}
	p := &Plan{
		Graph:   g,
		Nodes:   make([]*BoundNode, len(g.Nodes)),
		Edges:   make([]*BoundEdge, len(g.Edges)),
		Order:   order,
		Chains:  chains,
		Outputs: make(map[string]int),
	}
	// Intermediate outputs become visible to later chains.
	overlay := make(map[string]RelInfo)
	lookup := func(name string) (RelInfo, error) {
		if ri, ok := overlay[name]; ok {
			return ri, nil
		}
		return res.RelInfo(name)
	}
	for _, chain := range chains {
		for _, id := range chain {
			bn, err := bindNode(g, p, g.Nodes[id], lookup)
			if err != nil {
				return nil, err
			}
			p.Nodes[id] = bn
			if bn.Node.Kind == OpStore {
				if _, dup := overlay[bn.Node.As]; dup {
					return nil, fmt.Errorf("lera: two store nodes write %q", bn.Node.As)
				}
				if _, err := res.RelInfo(bn.Node.As); err == nil {
					return nil, fmt.Errorf("lera: store output %q shadows a base relation", bn.Node.As)
				}
				overlay[bn.Node.As] = RelInfo{Schema: bn.InSchema, Degree: bn.Degree}
				p.Outputs[bn.Node.As] = id
			}
		}
	}
	// The placeholder count is fixed once every predicate is bound; cache it
	// so the per-execution BindParams arity check costs nothing.
	p.params = countParams(p)
	// Bind edge routing columns against producer output schemas, and give
	// every consumer of a hash edge its router.
	for i, e := range g.Edges {
		be := &BoundEdge{Edge: e}
		if e.Route == RouteHash {
			from, to := p.Nodes[e.From], p.Nodes[e.To]
			if from.OutSchema == nil {
				return nil, fmt.Errorf("lera: edge from store node %s", g.Nodes[e.From].Name)
			}
			be.RouteColsIdx = make([]int, len(e.RouteCols))
			for j, c := range e.RouteCols {
				idx, ok := from.OutSchema.Index(c)
				if !ok {
					return nil, fmt.Errorf("lera: routing column %q not produced by %s %s", c, g.Nodes[e.From].Name, from.OutSchema)
				}
				be.RouteColsIdx[j] = idx
			}
			if to.Router == nil {
				router, err := partition.NewHash(from.OutSchema, e.RouteCols, to.Degree)
				if err != nil {
					return nil, fmt.Errorf("lera: edge %s->%s: %w", g.Nodes[e.From].Name, g.Nodes[e.To].Name, err)
				}
				to.Router = router
			}
		}
		p.Edges[i] = be
	}
	return p, nil
}

func bindNode(g *Graph, p *Plan, n *Node, lookup func(string) (RelInfo, error)) (*BoundNode, error) {
	bn := &BoundNode{Node: n, AggIdx: -1}
	in := g.In(n.ID)
	// Resolve the pipelined input schema: all producers must agree.
	for _, e := range in {
		from := p.Nodes[e.From]
		if from == nil {
			return nil, fmt.Errorf("lera: node %s consumed before produced (chain ordering bug)", g.Nodes[e.From].Name)
		}
		if from.OutSchema == nil {
			return nil, fmt.Errorf("lera: node %s consumes from store node %s", n.Name, from.Node.Name)
		}
		if bn.InSchema == nil {
			bn.InSchema = from.OutSchema
		} else if !bn.InSchema.Equal(from.OutSchema) {
			return nil, fmt.Errorf("lera: node %s has producers with different schemas", n.Name)
		}
	}

	switch n.Kind {
	case OpFilter, OpTransmit:
		if n.Rel != "" {
			if len(in) > 0 {
				return nil, fmt.Errorf("lera: %s %s is bound to %q but also has pipelined input", n.Kind, n.Name, n.Rel)
			}
			ri, err := lookup(n.Rel)
			if err != nil {
				return nil, fmt.Errorf("lera: %s %s: %w", n.Kind, n.Name, err)
			}
			bn.Rel = ri
			bn.Degree = ri.Degree
			bn.OutSchema = ri.Schema
		} else {
			if len(in) == 0 {
				return nil, fmt.Errorf("lera: %s %s has neither a bound relation nor pipelined input", n.Kind, n.Name)
			}
			bn.OutSchema = bn.InSchema
			bn.Degree = inheritDegree(g, p, n, in)
		}
		if n.Kind == OpFilter {
			pred := n.Pred
			if pred == nil {
				pred = True{}
			}
			bound, err := pred.Bind(bn.OutSchema)
			if err != nil {
				return nil, fmt.Errorf("lera: filter %s: %w", n.Name, err)
			}
			bn.Pred = bound
		}

	case OpJoin:
		if n.BuildRel == "" {
			return nil, fmt.Errorf("lera: join %s has no build relation", n.Name)
		}
		build, err := lookup(n.BuildRel)
		if err != nil {
			return nil, fmt.Errorf("lera: join %s: %w", n.Name, err)
		}
		bn.Build = build
		bn.Degree = build.Degree
		if len(n.BuildKey) == 0 || len(n.BuildKey) != len(n.ProbeKey) {
			return nil, fmt.Errorf("lera: join %s needs matching build/probe keys, got %v and %v", n.Name, n.BuildKey, n.ProbeKey)
		}
		bn.BuildKeyIdx = make([]int, len(n.BuildKey))
		for i, c := range n.BuildKey {
			idx, ok := build.Schema.Index(c)
			if !ok {
				return nil, fmt.Errorf("lera: join %s: build key %q not in %s", n.Name, c, build.Schema)
			}
			bn.BuildKeyIdx[i] = idx
		}
		var probeSchema *relation.Schema
		var probeName string
		if n.ProbeRel != "" {
			// Triggered join: both operands bound and co-partitioned.
			if len(in) > 0 {
				return nil, fmt.Errorf("lera: join %s has both a bound probe relation and pipelined input", n.Name)
			}
			probe, err := lookup(n.ProbeRel)
			if err != nil {
				return nil, fmt.Errorf("lera: join %s: %w", n.Name, err)
			}
			bn.Probe = probe
			if probe.Degree != build.Degree {
				return nil, fmt.Errorf("lera: join %s: build degree %d != probe degree %d (co-partitioning required)", n.Name, build.Degree, probe.Degree)
			}
			if err := checkCoPartitioning(n, build, probe); err != nil {
				return nil, err
			}
			probeSchema = probe.Schema
			probeName = n.ProbeRel
		} else {
			// Pipelined join: probe tuples arrive by data activation and
			// must be routed with the build relation's partitioning
			// function so they land on the co-located instance.
			if len(in) == 0 {
				return nil, fmt.Errorf("lera: join %s has no probe input", n.Name)
			}
			probeSchema = bn.InSchema
			probeName = "probe"
			router, err := buildRouter(n, build)
			if err != nil {
				return nil, err
			}
			bn.Router = router
			for _, e := range in {
				if e.Route != RouteHash {
					return nil, fmt.Errorf("lera: join %s: pipelined probe edges must redistribute (RouteHash)", n.Name)
				}
				if len(e.RouteCols) == 0 {
					e.RouteCols = append([]string(nil), n.ProbeKey...)
				} else if !slices.Equal(e.RouteCols, n.ProbeKey) {
					return nil, fmt.Errorf("lera: join %s: probe edge routes on %v, join expects %v", n.Name, e.RouteCols, n.ProbeKey)
				}
			}
		}
		bn.ProbeKeyIdx = make([]int, len(n.ProbeKey))
		for i, c := range n.ProbeKey {
			idx, ok := probeSchema.Index(c)
			if !ok {
				return nil, fmt.Errorf("lera: join %s: probe key %q not in %s", n.Name, c, probeSchema)
			}
			bn.ProbeKeyIdx[i] = idx
			bt := build.Schema.Column(bn.BuildKeyIdx[i]).Type
			pt := probeSchema.Column(idx).Type
			if bt != pt {
				return nil, fmt.Errorf("lera: join %s: key %q is %s on build side, %s on probe side", n.Name, c, bt, pt)
			}
		}
		bn.OutSchema = build.Schema.Concat(probeSchema, n.BuildRel+".", probeName+".")

	case OpMap:
		if len(in) == 0 {
			return nil, fmt.Errorf("lera: map %s has no input", n.Name)
		}
		if len(n.Cols) == 0 {
			return nil, fmt.Errorf("lera: map %s projects no columns", n.Name)
		}
		bn.Degree = inheritDegree(g, p, n, in)
		cols := make([]relation.Column, len(n.Cols))
		bn.ColsIdx = make([]int, len(n.Cols))
		for i, c := range n.Cols {
			idx, ok := bn.InSchema.Index(c)
			if !ok {
				return nil, fmt.Errorf("lera: map %s: column %q not in %s", n.Name, c, bn.InSchema)
			}
			bn.ColsIdx[i] = idx
			cols[i] = bn.InSchema.Column(idx)
		}
		s, err := relation.NewSchema(cols...)
		if err != nil {
			return nil, fmt.Errorf("lera: map %s: %w", n.Name, err)
		}
		bn.OutSchema = s

	case OpAggregate:
		if len(in) == 0 {
			return nil, fmt.Errorf("lera: aggregate %s has no input", n.Name)
		}
		bn.Degree = inheritDegree(g, p, n, in)
		outCols := make([]relation.Column, 0, len(n.GroupBy)+1)
		bn.GroupIdx = make([]int, len(n.GroupBy))
		for i, c := range n.GroupBy {
			idx, ok := bn.InSchema.Index(c)
			if !ok {
				return nil, fmt.Errorf("lera: aggregate %s: group column %q not in %s", n.Name, c, bn.InSchema)
			}
			bn.GroupIdx[i] = idx
			outCols = append(outCols, bn.InSchema.Column(idx))
		}
		aggName := n.Agg.String()
		if n.Agg == AggCount {
			if n.AggCol != "" {
				return nil, fmt.Errorf("lera: aggregate %s: COUNT takes no column", n.Name)
			}
			outCols = append(outCols, relation.Column{Name: "count", Type: relation.TInt})
		} else {
			idx, ok := bn.InSchema.Index(n.AggCol)
			if !ok {
				return nil, fmt.Errorf("lera: aggregate %s: column %q not in %s", n.Name, n.AggCol, bn.InSchema)
			}
			if n.Agg == AggSum && bn.InSchema.Column(idx).Type != relation.TInt {
				return nil, fmt.Errorf("lera: aggregate %s: SUM needs an integer column", n.Name)
			}
			bn.AggIdx = idx
			typ := bn.InSchema.Column(idx).Type
			outCols = append(outCols, relation.Column{Name: aggName + "_" + n.AggCol, Type: typ})
		}
		s, err := relation.NewSchema(outCols...)
		if err != nil {
			return nil, fmt.Errorf("lera: aggregate %s: %w", n.Name, err)
		}
		bn.OutSchema = s
		// Redistributed group-by: hash-routed edges must route on the group
		// key so each group lands on exactly one instance.
		for _, e := range in {
			if e.Route == RouteHash && !slices.Equal(e.RouteCols, n.GroupBy) {
				return nil, fmt.Errorf("lera: aggregate %s: input routes on %v, groups on %v", n.Name, e.RouteCols, n.GroupBy)
			}
		}

	case OpStore:
		if len(in) == 0 {
			return nil, fmt.Errorf("lera: store %s has no input", n.Name)
		}
		if n.As == "" {
			return nil, fmt.Errorf("lera: store %s has no output name", n.Name)
		}
		if len(g.Out(n.ID)) > 0 {
			return nil, fmt.Errorf("lera: store %s has outgoing edges; stores terminate a chain", n.Name)
		}
		bn.Degree = inheritDegree(g, p, n, in)
		bn.OutSchema = nil

	default:
		return nil, fmt.Errorf("lera: node %s has unknown kind %v", n.Name, n.Kind)
	}

	if bn.Degree <= 0 {
		return nil, fmt.Errorf("lera: node %s resolved to degree %d", n.Name, bn.Degree)
	}
	// RouteSame edges require degree agreement producer/consumer.
	for _, e := range in {
		if e.Route == RouteSame {
			from := p.Nodes[e.From]
			if from.Degree != bn.Degree {
				return nil, fmt.Errorf("lera: RouteSame edge %s->%s with degrees %d and %d", g.Nodes[e.From].Name, n.Name, from.Degree, bn.Degree)
			}
		}
	}
	return bn, nil
}

// inheritDegree resolves a pipelined node's degree: the explicit override,
// or the first producer's degree.
func inheritDegree(g *Graph, p *Plan, n *Node, in []*Edge) int {
	if n.DegreeOverride > 0 {
		return n.DegreeOverride
	}
	if len(in) > 0 {
		return p.Nodes[in[0].From].Degree
	}
	return 0
}

// checkCoPartitioning verifies that a triggered join's operands actually
// co-locate equal keys: both partitioned on the join key with compatible
// functions. Missing partition functions are accepted when the declared
// partitioning keys match the join keys (the caller vouches for placement).
func checkCoPartitioning(n *Node, build, probe RelInfo) error {
	// If either side declares a partitioning key, it must be the join key.
	if build.Part != nil && !slices.Equal(build.Part.Key(), n.BuildKey) {
		return fmt.Errorf("lera: join %s: build relation partitioned on %v, join key is %v", n.Name, build.Part.Key(), n.BuildKey)
	}
	if probe.Part != nil && !slices.Equal(probe.Part.Key(), n.ProbeKey) {
		return fmt.Errorf("lera: join %s: probe relation partitioned on %v, join key is %v", n.Name, probe.Part.Key(), n.ProbeKey)
	}
	if build.Part != nil && probe.Part != nil && build.Part.Signature() != probe.Part.Signature() {
		return fmt.Errorf("lera: join %s: operands partitioned with incompatible functions %s and %s", n.Name, build.Part.Signature(), probe.Part.Signature())
	}
	return nil
}

// buildRouter returns the function routing probe tuples to a pipelined
// join's instances: the build relation's own partitioning function, or a
// default hash with the same degree when the metadata carries none.
func buildRouter(n *Node, build RelInfo) (partition.Func, error) {
	if build.Part != nil {
		if !slices.Equal(build.Part.Key(), n.BuildKey) {
			return nil, fmt.Errorf("lera: join %s: build relation partitioned on %v, join key is %v", n.Name, build.Part.Key(), n.BuildKey)
		}
		return build.Part, nil
	}
	return partition.NewHash(build.Schema, n.BuildKey, build.Degree)
}

// chainOrder decomposes the plan into pipeline chains (weakly connected
// components of the data-edge graph) and orders them so that a chain reading
// a store output runs after the chain producing it.
func chainOrder(g *Graph) ([][]int, error) {
	// Union-find over data edges.
	parent := make([]int, len(g.Nodes))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for _, e := range g.Edges {
		union(e.From, e.To)
	}
	// Group nodes by component, preserving topological node order within.
	topo, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	members := make(map[int][]int)
	var roots []int
	for _, id := range topo {
		r := find(id)
		if _, seen := members[r]; !seen {
			roots = append(roots, r)
		}
		members[r] = append(members[r], id)
	}
	// Chain dependency edges: consumer chain depends on producer chain when
	// a node reads a relation stored by another chain.
	producer := make(map[string]int) // output name -> chain root
	for _, n := range g.Nodes {
		if n.Kind == OpStore {
			producer[n.As] = find(n.ID)
		}
	}
	deps := make(map[int]map[int]bool)
	for _, n := range g.Nodes {
		for _, rel := range []string{n.Rel, n.BuildRel, n.ProbeRel} {
			if rel == "" {
				continue
			}
			if src, ok := producer[rel]; ok {
				dst := find(n.ID)
				if src == dst {
					return nil, fmt.Errorf("lera: node %s reads %q materialized in its own chain", n.Name, rel)
				}
				if deps[dst] == nil {
					deps[dst] = make(map[int]bool)
				}
				deps[dst][src] = true
			}
		}
	}
	// Topologically order the chains.
	ordered := make([][]int, 0, len(roots))
	done := make(map[int]bool)
	var visit func(r int, stack map[int]bool) error
	visit = func(r int, stack map[int]bool) error {
		if done[r] {
			return nil
		}
		if stack[r] {
			return fmt.Errorf("lera: cyclic dependency between pipeline chains")
		}
		stack[r] = true
		for d := range deps[r] {
			if err := visit(d, stack); err != nil {
				return err
			}
		}
		delete(stack, r)
		done[r] = true
		ordered = append(ordered, members[r])
		return nil
	}
	for _, r := range roots {
		if err := visit(r, map[int]bool{}); err != nil {
			return nil, err
		}
	}
	return ordered, nil
}
