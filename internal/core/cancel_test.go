package core

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"dbs3/internal/lera"
	"dbs3/internal/relation"
	"dbs3/internal/workload"
)

// TestExecuteContextCancel cancels mid-execution with a tiny queue capacity
// so producers are blocked on backpressure when the abort lands; the call
// must return ctx.Err() promptly and leak no goroutines.
func TestExecuteContextCancel(t *testing.T) {
	db, err := workload.NewJoinDB(50_000, 5_000, 40, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.AssocJoinPlan(lera.NestedLoop)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	go func() {
		<-started
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	resCh := make(chan error, 1)
	go func() {
		close(started)
		_, err := ExecuteContext(ctx, plan, db.Relations(), Options{Threads: 4, QueueCap: 2})
		resCh <- err
	}()
	select {
	case err := <-resCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled execution did not return within 10s")
	}

	// Workers, producers and the watcher must all unwind.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, n)
	}
}

// TestExecuteContextPreCancelled never starts work under an already
// cancelled context.
func TestExecuteContextPreCancelled(t *testing.T) {
	db, err := workload.NewJoinDB(1_000, 100, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.IdealJoinPlan(lera.HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExecuteContext(ctx, plan, db.Relations(), Options{Threads: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestExecuteContextCancelBetweenChains cancels at a materialization point:
// a Readmit hook cancels the context before chain 1 starts, so the call must
// return ctx.Err() without chain 1 producing a row and leak no goroutines.
func TestExecuteContextCancelBetweenChains(t *testing.T) {
	plan, db := twoChainPlan(t, lera.HashJoin)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var chains []int
	var rows atomic.Int64
	opts := Options{
		Readmit: func(chain, want, min int) int {
			chains = append(chains, chain)
			if chain == 1 {
				cancel()
			}
			return want
		},
		StreamOutput: "Res",
		Sink:         countSink{&rows},
	}
	res, err := ExecuteContext(ctx, plan, db, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("cancelled execution returned a result: %v", res.Outputs)
	}
	if !slices.Equal(chains, []int{0, 1}) {
		t.Errorf("Readmit saw chains %v, want [0 1]", chains)
	}
	if n := rows.Load(); n != 0 {
		t.Errorf("chain 1's store streamed %d rows after the cancel", n)
	}
	// Chain 0's watcher exits once the chain completes; wait for it without
	// sleeping.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, n)
	}
}

// countSink counts the tuples of a streamed output.
type countSink struct{ n *atomic.Int64 }

func (s countSink) Push(relation.Tuple) error { s.n.Add(1); return nil }

// TestExecuteContextComplete checks that the context plumbing does not
// disturb a normal run of one, two and three chains in a line.
func TestExecuteContextComplete(t *testing.T) {
	for _, c := range []struct {
		name  string
		theta float64
		build func(g *lera.Graph) // adds the chains that materialize T for the join
	}{
		{"one chain", 0, nil},
		{"two chains", 0.5, func(g *lera.Graph) {
			g.ConnectSame(g.Filter("f", "Br", nil), g.Store("s1", "T"))
		}},
		{"three chains", 0, func(g *lera.Graph) {
			g.ConnectSame(g.Filter("f1", "Br", nil), g.Store("s1", "T1"))
			g.ConnectSame(g.Filter("f2", "T1", nil), g.Store("s2", "T"))
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			db, err := workload.NewJoinDB(2_000, 200, 10, c.theta)
			if err != nil {
				t.Fatal(err)
			}
			// The last chain redistributes the build operand on k into a
			// pipelined join with A: Br itself, or Br's copy T.
			g := lera.NewGraph()
			src := "Br"
			if c.build != nil {
				c.build(g)
				src = "T"
			}
			tr := g.Transmit("t", src)
			j := g.JoinPipelined("j", "A", []string{"k"}, []string{"k"}, lera.HashJoin)
			g.ConnectHash(tr, j, []string{"k"})
			g.ConnectSame(j, g.Store("s", "Res"))
			plan, err := lera.Bind(g, db.Resolver())
			if err != nil {
				t.Fatal(err)
			}
			res, err := ExecuteContext(context.Background(), plan, db.Relations(), Options{Threads: 4})
			if err != nil {
				t.Fatal(err)
			}
			if err := db.VerifyJoinResult(res.Outputs["Res"]); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestPlanAllocationMatchesExecute verifies the split allocation API: the
// allocation PlanAllocation returns is the one Execute uses.
func TestPlanAllocationMatchesExecute(t *testing.T) {
	db, err := workload.NewJoinDB(2_000, 200, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.IdealJoinPlan(lera.HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Processors: 8, Utilization: 0.5}
	alloc, err := PlanAllocation(plan, db.Relations(), opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteContext(context.Background(), plan, db.Relations(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Alloc.Total != alloc.Total {
		t.Errorf("Execute used %d threads, PlanAllocation chose %d", res.Alloc.Total, alloc.Total)
	}
}

// TestQueueAbort covers the backpressure release: a producer blocked on a
// full queue is freed by Abort and subsequent pushes are dropped.
func TestQueueAbort(t *testing.T) {
	q := NewQueue(1)
	q.Push(Activation{})
	unblocked := make(chan struct{})
	go func() {
		q.Push(Activation{}) // blocks: capacity 1, already full
		close(unblocked)
	}()
	time.Sleep(5 * time.Millisecond)
	q.Abort()
	select {
	case <-unblocked:
	case <-time.After(2 * time.Second):
		t.Fatal("Abort did not release a blocked producer")
	}
	q.Push(Activation{}) // dropped, must not panic or block
	if q.Len() != 1 {
		t.Errorf("queue length = %d after abort, want 1 (drops, no appends)", q.Len())
	}
}
