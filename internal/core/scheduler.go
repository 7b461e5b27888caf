package core

import (
	"math"
	"sort"

	"dbs3/internal/lera"
)

const (
	// startupCost is the per-thread start-up cost in the work units of
	// lera.Estimate; step 1 minimizes W/n + s*n [Wilschut92], giving
	// n* = sqrt(W/s).
	startupCost = 1000
	// skewThreshold is the coefficient of variation of per-instance costs
	// above which step 4 picks LPT for a triggered operation.
	skewThreshold = 0.25
)

// Allocation is the scheduler's output: threads per chain and per node, and
// the consumption strategy per node.
type Allocation struct {
	// Total is the query's thread count N (step 1).
	Total int
	// Chain[c] is chain c's thread count (step 2).
	Chain []int
	// ChainWant[c] is chain c's desired thread count considered in
	// isolation: the step-1 square-root rule applied to the chain's own
	// complexity, capped by the machine (Machine, or Processors) but NOT
	// throttled by utilization or by the admission-time headroom. It is
	// what a sequential execution asks for when it renegotiates its
	// reservation at the materialization point before the chain — the
	// renegotiator re-applies the utilization throttle with a fresh
	// measurement. An explicit Threads setting fixes every entry to N
	// (explicit requests are never adapted).
	ChainWant []int
	// Node[id] is node id's thread count within its chain (step 3).
	Node map[int]int
	// Strategy[id] is node id's consumption strategy (step 4).
	Strategy map[int]StrategyKind

	// MemEstimate is the estimated peak working-set bytes of the query's
	// blocking operators — what a memory-aware admission controller
	// reserves next to Total. ChainMem[c] is chain c's own need, so a
	// chain-boundary renegotiation can shrink the reservation to what the
	// remaining chains still require. Both are estimates; enforcement is
	// the spill accountant, which degrades the operators to disk at
	// whatever grant admission actually gave.
	MemEstimate int64
	ChainMem    []int64

	// nodeCost[id] is the complexity estimate step 3 distributed threads
	// by, kept so ResizeChain can re-run the distribution for a
	// renegotiated chain total.
	nodeCost []float64
}

// clone copies the mutable layers of an Allocation (Chain and Node) so a
// renegotiating execution can resize chains without mutating the allocation
// its admission reserved. ChainWant, Strategy and the cost estimates are
// read-only and stay shared.
func (a Allocation) clone() Allocation {
	a.Chain = append([]int(nil), a.Chain...)
	node := make(map[int]int, len(a.Node))
	for k, v := range a.Node {
		node[k] = v
	}
	a.Node = node
	return a
}

// Want returns chain ci's desired thread count (see ChainWant), falling back
// to the planned chain total for allocations without the per-chain split.
func (a Allocation) Want(ci int) int {
	if ci >= 0 && ci < len(a.ChainWant) {
		return a.ChainWant[ci]
	}
	if ci >= 0 && ci < len(a.Chain) {
		return a.Chain[ci]
	}
	return a.Total
}

// ResizeChain re-runs step 3 for one chain with a renegotiated thread total:
// the chain's node thread counts are redistributed proportionally to the
// same complexity estimates the original allocation used. chain lists the
// chain's node ids (plan.Chains[ci]). Called at a materialization point when
// an admission controller granted a different thread count than the plan
// assumed.
func (a *Allocation) ResizeChain(ci int, chain []int, threads int) {
	if ci < 0 || ci >= len(a.Chain) || len(chain) == 0 {
		return
	}
	if threads < 1 {
		threads = 1
	}
	a.Chain[ci] = threads
	weights := make([]float64, len(chain))
	for i, id := range chain {
		w := 0.0
		if id >= 0 && id < len(a.nodeCost) {
			w = a.nodeCost[id]
		}
		if w <= 0 {
			// No estimate (hand-built allocation): weigh by the current
			// shares so the resize preserves the existing proportions.
			w = float64(a.Node[id])
		}
		weights[i] = w
	}
	shares := Proportional(threads, weights)
	for i, id := range chain {
		a.Node[id] = shares[i]
	}
}

// Allocate runs the four steps under opts' Threads, Processors, Machine,
// Utilization and Strategy. skew[id] is the coefficient of variation of node
// id's per-instance cost estimates (step 4's skew detection); nil, or 0 for a
// node, when unknown.
func Allocate(plan *lera.Plan, costs *lera.Costs, skew []float64, o Options) Allocation {
	o = o.withDefaults()

	// Step 1: number of threads for the whole query.
	n := o.Threads
	if n <= 0 {
		n = int(math.Round(math.Sqrt(costs.Total / startupCost)))
		if o.Utilization > 0 && o.Utilization < 1 {
			n = int(math.Round(float64(n) * (1 - o.Utilization)))
		}
	}
	if n < 1 {
		n = 1
	}
	if o.Threads <= 0 && n > o.Processors {
		n = o.Processors
	}

	// Step 2: chains run sequentially, each with the whole N while active.
	chainThreads := make([]int, len(plan.Chains))
	for i := range chainThreads {
		chainThreads[i] = n
	}
	// Per-chain desired totals for chain-boundary renegotiation: the step-1
	// rule on each chain's own complexity, capped by the machine but not by
	// the moment's utilization (the renegotiator re-measures that).
	wantCap := o.Processors
	if o.Machine > wantCap {
		wantCap = o.Machine
	}
	chainWant := make([]int, len(plan.Chains))
	for ci := range plan.Chains {
		if o.Threads > 0 {
			chainWant[ci] = n
			continue
		}
		w := int(math.Round(math.Sqrt(costs.Chain[ci] / startupCost)))
		if w < 1 {
			w = 1
		}
		if w > wantCap {
			w = wantCap
		}
		chainWant[ci] = w
	}
	alloc := Allocation{
		Total:     n,
		Chain:     chainThreads,
		ChainWant: chainWant,
		Node:      make(map[int]int, len(plan.Nodes)),
		Strategy:  make(map[int]StrategyKind, len(plan.Nodes)),
		nodeCost:  append([]float64(nil), costs.Node...),
	}

	// Step 3: distribute each chain's threads over its operations using the
	// complexity ratio NbThreads(Op) = NbThreads(Chain) * C(Op)/C(Chain).
	for ci, chain := range plan.Chains {
		nodeCosts := make([]float64, len(chain))
		for i, id := range chain {
			nodeCosts[i] = costs.Node[id]
		}
		shares := Proportional(alloc.Chain[ci], nodeCosts)
		for i, id := range chain {
			alloc.Node[id] = shares[i]
		}
	}

	// Step 4: consumption strategy per operation.
	for _, id := range plan.Order {
		if o.Strategy != StrategyAuto {
			alloc.Strategy[id] = o.Strategy
			continue
		}
		st := StrategyRandom
		if plan.Graph.Triggered(id) && id < len(skew) && skew[id] > skewThreshold {
			st = StrategyLPT
		}
		alloc.Strategy[id] = st
	}
	return alloc
}

// Proportional is step 3 of Figure 5: it splits n threads into integer
// shares proportional to weights, each at least 1, using largest-remainder
// rounding. When n < len(weights) every entry still gets 1 thread (an
// operation cannot run with zero threads); all-zero weights split n evenly.
func Proportional(n int, weights []float64) []int {
	k := len(weights)
	out := make([]int, k)
	if k == 0 {
		return out
	}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	if sum <= 0 {
		for i := range out {
			out[i] = maxInt(1, n/k)
		}
		return out
	}
	type frac struct {
		i int
		f float64
	}
	fr := make([]frac, k)
	assigned := 0
	for i, w := range weights {
		exact := float64(n) * w / sum
		out[i] = int(math.Floor(exact))
		if out[i] < 1 {
			out[i] = 1
		}
		assigned += out[i]
		fr[i] = frac{i, exact - math.Floor(exact)}
	}
	sort.SliceStable(fr, func(a, b int) bool { return fr[a].f > fr[b].f })
	for j := 0; assigned < n; j = (j + 1) % k {
		out[fr[j].i]++
		assigned++
	}
	return out
}

// coefficientOfVariation returns stddev/mean of the per-instance costs; 0
// for fewer than two instances or zero mean.
func coefficientOfVariation(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	if mean == 0 {
		return 0
	}
	var varsum float64
	for _, x := range xs {
		d := x - mean
		varsum += d * d
	}
	return math.Sqrt(varsum/float64(len(xs))) / mean
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
