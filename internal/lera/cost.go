package lera

import (
	"dbs3/internal/relation"
	"dbs3/internal/storage"
)

// Cost estimation for the scheduler's thread-allocation steps (§3, Figure
// 5): step 1 needs the query's total sequential complexity, steps 2-3 need
// per-chain and per-operation complexities, step 4 and LPT need per-instance
// costs (BoundNode.InstanceCosts). Units are abstract "work units" (roughly
// tuples touched); only ratios matter for allocation. The same cardinalities
// price the blocking operators' working sets in bytes, the figure memory
// admission reserves next to the thread count.

// NodeCost estimates the sequential complexity of each node, and CostModel
// parameterizes the per-operation weights.
type CostModel struct {
	// FilterTuple is the cost of evaluating the predicate on one tuple.
	FilterTuple float64
	// TransmitTuple is the cost of routing one tuple.
	TransmitTuple float64
	// NestedLoopPair is the cost of one build-probe tuple comparison.
	NestedLoopPair float64
	// HashBuildTuple / HashProbeTuple are the costs of inserting and
	// probing one tuple in a hash table (hash and temp-index joins).
	HashBuildTuple float64
	HashProbeTuple float64
	// MapTuple / AggTuple / StoreTuple are per-tuple costs.
	MapTuple   float64
	AggTuple   float64
	StoreTuple float64
	// DefaultSelectivity scales output cardinalities of filters when no
	// statistics say otherwise.
	DefaultSelectivity float64
}

// DefaultCostModel returns the weights used when the caller supplies none.
func DefaultCostModel() CostModel {
	return CostModel{
		FilterTuple:        1,
		TransmitTuple:      1,
		NestedLoopPair:     1,
		HashBuildTuple:     2,
		HashProbeTuple:     1,
		MapTuple:           1,
		AggTuple:           2,
		StoreTuple:         1,
		DefaultSelectivity: 0.5,
	}
}

// Costs holds the estimation result.
type Costs struct {
	// Node[i] is node i's estimated sequential complexity.
	Node []float64
	// OutCard[i] is node i's estimated output cardinality.
	OutCard []float64
	// Bytes[i] is node i's estimated resident working set: a hash or
	// temp-index join's build index, an aggregate's group table, a store's
	// materialization; 0 for the streaming operators. It is a planning
	// figure — enforcement is the spill accountant, which makes operators
	// degrade to disk at whatever grant admission gave.
	Bytes []int64
	// Chain[c] is the total complexity of plan chain c.
	Chain []float64
	// Total is the whole query's complexity.
	Total float64
}

// Estimate computes complexities and working-set bytes for every node of a
// bound plan. Cardinality estimates flow along the topological order; bound
// relations contribute their true cardinalities (RelInfo.Card).
func Estimate(p *Plan, m CostModel) *Costs {
	c := &Costs{
		Node:    make([]float64, len(p.Nodes)),
		OutCard: make([]float64, len(p.Nodes)),
		Bytes:   make([]int64, len(p.Nodes)),
		Chain:   make([]float64, len(p.Chains)),
	}
	for _, id := range p.Order {
		bn := p.Nodes[id]
		inCard := 0.0
		for _, e := range p.Graph.In(id) {
			inCard += c.OutCard[e.From]
		}
		switch bn.Node.Kind {
		case OpFilter:
			card := bn.Rel.Card()
			c.Node[id] = card * m.FilterTuple
			sel := m.DefaultSelectivity
			if _, isTrue := bn.Pred.(True); isTrue {
				sel = 1
			}
			c.OutCard[id] = card * sel
		case OpTransmit:
			card := inCard
			if bn.Node.Rel != "" {
				card = bn.Rel.Card()
			}
			c.Node[id] = card * m.TransmitTuple
			c.OutCard[id] = card
		case OpJoin:
			build := bn.Build.Card()
			probe := inCard
			if bn.Node.ProbeRel != "" {
				probe = bn.Probe.Card()
			}
			d := float64(bn.Degree)
			switch bn.Node.Algo {
			case NestedLoop:
				// Per-fragment nested loop: (build/d) * (probe/d) pairs per
				// instance, d instances.
				c.Node[id] = (build / d) * (probe / d) * d * m.NestedLoopPair
			case HashJoin, TempIndex:
				c.Node[id] = build*m.HashBuildTuple + probe*m.HashProbeTuple
				c.Bytes[id] = int64(build * float64(tupleBytes(bn.Build.Schema)+storage.IndexEntryOverhead))
			}
			// Keyed equijoin on a (near-)unique build key: out ~ probe.
			c.OutCard[id] = probe
		case OpMap:
			c.Node[id] = inCard * m.MapTuple
			c.OutCard[id] = inCard
		case OpAggregate:
			c.Node[id] = inCard * m.AggTuple
			c.OutCard[id] = inCard * m.DefaultSelectivity
			c.Bytes[id] = int64(c.OutCard[id] * float64(tupleBytes(bn.InSchema)+storage.AggStateOverhead))
		case OpStore:
			c.Node[id] = inCard * m.StoreTuple
			c.OutCard[id] = 0
			c.Bytes[id] = int64(inCard * float64(tupleBytes(bn.InSchema)))
		}
	}
	for ci, chain := range p.Chains {
		for _, id := range chain {
			c.Chain[ci] += c.Node[id]
		}
		c.Total += c.Chain[ci]
	}
	return c
}

// Card is the relation's cardinality: the sum of its fragment sizes, or a
// nominal 1000 tuples per fragment when FragSizes is nil — an earlier
// chain's output, whose size is known only once it runs. Empty fragments
// are an empty relation, not missing statistics.
func (ri RelInfo) Card() float64 {
	if ri.FragSizes == nil {
		return float64(ri.Degree) * 1000
	}
	n := 0
	for _, s := range ri.FragSizes {
		n += s
	}
	return float64(n)
}

// InstanceCosts is the per-instance sequential cost of the node's work,
// from the fragment sizes of the relations it reads: rel for a filter or
// transmit, build and probe for a join (a pipelined join's probe is
// ignored). Step 4 measures a triggered node's skew on it and LPT ranks its
// queues by it; for a pipelined join it is the build fragment each probe
// tuple meets, the per-tuple cost of a nested-loop probe. Nil when an
// operand's sizes are unknown or the node reads no relation.
func (bn *BoundNode) InstanceCosts(rel, build, probe []int) []float64 {
	n := bn.Node
	switch {
	case n.Kind == OpFilter || n.Kind == OpTransmit:
		build, probe = rel, nil
	case n.Kind != OpJoin:
		return nil
	case n.ProbeRel == "":
		probe = nil
	case len(probe) != len(build):
		return nil
	}
	if len(build) == 0 {
		return nil
	}
	out := make([]float64, len(build))
	for i, b := range build {
		switch {
		case probe == nil:
			out[i] = float64(b)
		case n.Algo == NestedLoop:
			out[i] = float64(b) * float64(probe[i])
		default:
			out[i] = float64(b) + float64(probe[i])
		}
	}
	return out
}

// tupleBytes prices one resident tuple of the schema: encoded width
// (strings assumed short) plus the in-memory overhead. Every schema it is
// given was bound, so none is nil.
func tupleBytes(s *relation.Schema) int64 {
	n := int64(2)
	for _, c := range s.Columns() {
		if c.Type == relation.TInt {
			n += 9
		} else {
			n += 5 + 12
		}
	}
	return n + storage.TupleOverhead
}
