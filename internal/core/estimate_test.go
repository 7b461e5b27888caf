package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"dbs3/internal/lera"
	"dbs3/internal/partition"
	"dbs3/internal/relation"
	"dbs3/internal/workload"
)

// estimatesDigest is the SHA-256 of TestEstimatesUnchanged's fingerprint
// text. It moves only when a change means to move what the scheduler and
// memory admission are told about a plan.
const estimatesDigest = "d66d55ea064bcb625e8948a658397c2ebc3767d7b0d538f415eda3982707c0d1"

// TestEstimatesUnchanged pins everything planning derives from a bound plan
// and its data — the Figure 5 allocation, the memory estimate and every
// queue's LPT inputs — over estimateCases.
func TestEstimatesUnchanged(t *testing.T) {
	var b strings.Builder
	for _, c := range estimateCases(t) {
		fingerprintPlan(t, &b, c.Name, c.Graph, c.DB, c.Opts)
	}
	out := b.String()
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != estimatesDigest {
		t.Errorf("estimate fingerprint digest = %s, want %s\n%s", got, estimatesDigest, out)
	}
}

// estimateCase is one plan under one option set.
type estimateCase struct {
	Name  string
	Graph *lera.Graph
	DB    *workload.JoinDB
	Opts  Options
}

// estimateCases are the paper's two plans (three join algorithms, uniform and
// Zipf-skewed A), a two-chain plan whose second chain reads the first one's
// output, and a redistributed GROUP BY, each under five option sets.
func estimateCases(t testing.TB) []estimateCase {
	t.Helper()
	optionSets := func(final string) []Options {
		return []Options{
			{Processors: 64},
			{Threads: 6, Processors: 4},
			{Processors: 8, Utilization: 0.5},
			{Processors: 64, Machine: 128, StreamOutput: final},
			{Processors: 2, Machine: 16, Strategy: StrategyLPT, TriggerGrain: 16},
		}
	}
	var cases []estimateCase
	for _, theta := range []float64{0, 1} {
		db, err := workload.NewJoinDB(2000, 200, 10, theta)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []lera.JoinAlgo{lera.NestedLoop, lera.HashJoin, lera.TempIndex} {
			for _, assoc := range []bool{false, true} {
				g := workload.IdealJoinGraph(algo)
				if assoc {
					g = workload.AssocJoinGraph(algo)
				}
				for oi, opts := range optionSets("Res") {
					cases = append(cases, estimateCase{fmt.Sprintf("join theta=%v algo=%v assoc=%t opts=%d", theta, algo, assoc, oi), g, db, opts})
				}
			}
		}
	}
	db, err := workload.NewJoinDB(1000, 100, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	twoChain := func() *lera.Graph {
		g := lera.NewGraph()
		f := g.Filter("f", "Br", lera.ColConst{Col: "k", Op: lera.GE, Val: relation.Int(0)})
		g.ConnectSame(f, g.Store("s1", "T1"))
		tr := g.Transmit("t", "T1")
		j := g.JoinPipelined("j", "A", []string{"k"}, []string{"k"}, lera.HashJoin)
		g.ConnectHash(tr, j, []string{"k"})
		g.ConnectSame(j, g.Store("s2", "Res"))
		return g
	}
	groupBy := func() *lera.Graph {
		g := lera.NewGraph()
		f := g.Filter("f", "A", lera.ColConst{Col: "id", Op: lera.LT, Val: relation.Int(500)})
		a := g.Aggregate("agg", []string{"k"}, lera.AggCount, "")
		g.ConnectHash(f, a, []string{"k"})
		g.ConnectSame(a, g.Store("s", "Counts"))
		return g
	}
	for oi, opts := range optionSets("Res") {
		cases = append(cases, estimateCase{fmt.Sprintf("two-chain opts=%d", oi), twoChain(), db, opts})
	}
	for oi, opts := range optionSets("Counts") {
		cases = append(cases, estimateCase{fmt.Sprintf("group-by opts=%d", oi), groupBy(), db, opts})
	}
	return cases
}

// fingerprintPlan binds g, plans its allocation under opts and writes the
// allocation and, chain by chain, each operation's queue estimates. Chains
// before the last run to completion so the next chain's operations are
// built over the outputs execution would give them.
func fingerprintPlan(t *testing.T, b *strings.Builder, name string, g *lera.Graph, jdb *workload.JoinDB, opts Options) {
	t.Helper()
	plan, err := lera.Bind(g, jdb.Resolver())
	if err != nil {
		t.Fatal(err)
	}
	db := DB(jdb.Relations())
	opts = opts.withDefaults()
	alloc, err := PlanAllocation(plan, db, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	fmt.Fprintf(b, "%s\n total=%d chain=%v want=%v node=%v strategy=%v mem=%d chainMem=%v\n",
		name, alloc.Total, alloc.Chain, alloc.ChainWant, alloc.Node, alloc.Strategy, alloc.MemEstimate, alloc.ChainMem)
	work := make(DB, len(db))
	for k, v := range db {
		work[k] = v
	}
	res := &Result{Outputs: map[string]*partition.Partitioned{}, Stats: map[int]*OpStats{}}
	for ci, chain := range plan.Chains {
		for _, id := range chain {
			op, term, err := buildOperation(plan, id, work, alloc, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fmt.Fprintf(b, " node %d:", id)
			if term != nil {
				// A store or sink has no queues; its instances print as
				// unestimated ones (NewQueue's 0 and per-tuple cost 1).
				b.WriteString(strings.Repeat(" 0/1", len(term.ctxs)))
			} else {
				for _, q := range op.Queues {
					fmt.Fprintf(b, " %v/%v", q.est, q.perTupleCost)
				}
			}
			b.WriteByte('\n')
		}
		if ci < len(plan.Chains)-1 {
			if err := runChain(context.Background(), plan, chain, work, alloc, opts, res); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}
