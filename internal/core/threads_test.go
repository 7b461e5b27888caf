package core_test

// The threads an allocation counts are the goroutines execution starts: a
// chain runs one pool per non-store node and none for its store or sink, and
// an admission holds exactly what the running chain starts.

import (
	"context"
	"fmt"
	"testing"

	"dbs3/internal/core"
	"dbs3/internal/lera"
	"dbs3/internal/relation"
	dbruntime "dbs3/internal/runtime"
	"dbs3/internal/workload"
)

// discardSink drops streamed tuples.
type discardSink struct{}

func (discardSink) Push(relation.Tuple) error { return nil }

type threadCase struct {
	name string
	g    *lera.Graph
	db   *workload.JoinDB
	opts core.Options
}

// threadCases are TestEstimatesUnchanged's cases, a filter→store point query
// and an IdealJoin streamed into a sink.
func threadCases(t *testing.T) []threadCase {
	var cases []threadCase
	for _, c := range core.EstimateCases(t) {
		cases = append(cases, threadCase{c.Name, c.Graph, c.DB, c.Opts})
	}
	db, err := workload.NewJoinDB(1000, 100, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	point := lera.NewGraph()
	point.ConnectSame(point.Filter("f", "A", lera.ColConst{Col: "id", Op: lera.EQ, Val: relation.Int(7)}), point.Store("s", "Res"))
	cases = append(cases, threadCase{"point query", point, db, core.Options{}})
	for _, threads := range []int{0, 2} {
		cases = append(cases, threadCase{fmt.Sprintf("streamed threads=%d", threads), workload.IdealJoinGraph(lera.HashJoin), db, core.Options{Threads: threads, StreamOutput: "Res"}})
	}
	return cases
}

// checkChains compares, chain by chain, the pool goroutines res started with
// res.Alloc: Chain[c] is both what started and the sum of Node over the
// chain's pools, and a store or sink has neither threads nor workers. held,
// when non-nil, is what an admission reserved while each chain ran.
func checkChains(t *testing.T, name string, plan *lera.Plan, res *core.Result, held []int) {
	t.Helper()
	for ci, chain := range plan.Chains {
		started, pooled := 0, 0
		for _, id := range chain {
			workers := len(res.Stats[id].WorkerActivations())
			started += workers
			if plan.Nodes[id].Node.Kind == lera.OpStore {
				if res.Alloc.Node[id] != 0 || workers != 0 {
					t.Errorf("%s: store %d has %d threads and %d workers, want none", name, id, res.Alloc.Node[id], workers)
				}
				continue
			}
			pooled += res.Alloc.Node[id]
		}
		if started != res.Alloc.Chain[ci] || pooled != res.Alloc.Chain[ci] {
			t.Errorf("%s: chain %d started %d pool goroutines, Chain = %d, pools sum to %d", name, ci, started, res.Alloc.Chain[ci], pooled)
		}
		if held != nil && held[ci] != res.Alloc.Chain[ci] {
			t.Errorf("%s: chain %d ran %d threads under a hold of %d", name, ci, res.Alloc.Chain[ci], held[ci])
		}
	}
}

func TestAllocationCountsRunningGoroutines(t *testing.T) {
	ctx := context.Background()
	for _, c := range threadCases(t) {
		plan, err := lera.Bind(c.g, c.db.Resolver())
		if err != nil {
			t.Fatal(err)
		}
		rels := core.DB(c.db.Relations())
		opts := c.opts
		if opts.StreamOutput != "" {
			opts.Sink = discardSink{}
		}
		res, err := core.ExecuteContext(ctx, plan, rels, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkChains(t, c.name, plan, res, nil)

		// Under a manager the admission holds what each chain runs: the
		// admission-time reservation, renegotiated at every boundary of an
		// auto-threaded multi-chain plan.
		m := dbruntime.NewManager(dbruntime.Config{Budget: 64})
		adm, err := m.Admit(ctx, plan, rels, &opts, dbruntime.PriorityInteractive)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		held := make([]int, len(plan.Chains))
		for ci := range held {
			held[ci] = m.Stats().ThreadsInFlight
		}
		opts.Readmit = func(chain, want, floor int) int {
			grant := m.Readmit(adm, chain, want, floor)
			held[chain] = m.Stats().ThreadsInFlight
			return grant
		}
		res, err = core.ExecuteAllocated(ctx, plan, rels, opts, adm.Alloc())
		adm.Finish(err)
		if err != nil {
			t.Fatalf("%s under a manager: %v", c.name, err)
		}
		checkChains(t, c.name+" under a manager", plan, res, held)
	}
}

// The paper's IdealJoin at one thread is one goroutine, the join's; at two
// the join's pool has both.
func TestIdealJoinPools(t *testing.T) {
	for _, theta := range []float64{0, 1} {
		db, err := workload.NewJoinDB(100000, 10240, 64, theta)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := db.IdealJoinPlan(lera.HashJoin)
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 2} {
			res, err := core.ExecuteContext(context.Background(), plan, db.Relations(), core.Options{Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			started := 0
			for id, st := range res.Stats {
				workers := len(st.WorkerActivations())
				started += workers
				if plan.Nodes[id].Node.Kind == lera.OpJoin && workers != threads {
					t.Errorf("theta=%v Threads=%d: the join runs %d workers", theta, threads, workers)
				}
			}
			if started != threads {
				t.Errorf("theta=%v Threads=%d: %d pool goroutines started", theta, threads, started)
			}
		}
	}
}
