package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dbs3/internal/lera"
	"dbs3/internal/relation"
	"dbs3/internal/workload"
)

// collectSink accumulates streamed tuples under a lock — the simplest
// RowSink, with no backpressure.
type collectSink struct {
	mu     sync.Mutex
	tuples []relation.Tuple
}

func (s *collectSink) Push(t relation.Tuple) error {
	s.mu.Lock()
	s.tuples = append(s.tuples, t)
	s.mu.Unlock()
	return nil
}

// TestStreamSinkMatchesMaterialized: streaming the final store through a
// RowSink delivers exactly the tuples a materializing run produces, and the
// streamed output no longer appears in Result.Outputs.
func TestStreamSinkMatchesMaterialized(t *testing.T) {
	db, err := workload.NewJoinDB(2000, 200, 20, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.IdealJoinPlan(lera.HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := execute(plan, db.Relations(), Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	refRel, err := ref.Relation("Res")
	if err != nil {
		t.Fatal(err)
	}

	sink := &collectSink{}
	res, err := execute(plan, db.Relations(), Options{Threads: 4, StreamOutput: "Res", Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Outputs["Res"]; ok {
		t.Error("streamed output still materialized in Result.Outputs")
	}
	if len(sink.tuples) != len(refRel.Tuples) {
		t.Fatalf("streamed %d tuples, materialized %d", len(sink.tuples), len(refRel.Tuples))
	}
	seen := make(map[string]int, len(refRel.Tuples))
	for _, tup := range refRel.Tuples {
		seen[tup.Key()]++
	}
	for _, tup := range sink.tuples {
		seen[tup.Key()]--
	}
	for k, n := range seen {
		if n != 0 {
			t.Fatalf("tuple multiset mismatch at %q (delta %d)", k, n)
		}
	}
}

// TestStreamIntermediateStillMaterializes: in a multi-chain plan only the
// named output streams; intermediate materialization points keep feeding
// later chains.
func TestStreamIntermediateStillMaterializes(t *testing.T) {
	db, err := workload.NewJoinDB(1000, 100, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	g := lera.NewGraph()
	f := g.Filter("f", "Br", lera.ColConst{Col: "k", Op: lera.GE, Val: relation.Int(0)})
	s1 := g.Store("s1", "T1")
	g.ConnectSame(f, s1)
	tr := g.Transmit("t", "T1")
	j := g.JoinPipelined("j", "A", []string{"k"}, []string{"k"}, lera.HashJoin)
	s2 := g.Store("s2", "Res")
	g.ConnectHash(tr, j, []string{"k"})
	g.ConnectSame(j, s2)
	plan, err := lera.Bind(g, db.Resolver())
	if err != nil {
		t.Fatal(err)
	}
	sink := &collectSink{}
	res, err := execute(plan, db.Relations(), Options{Threads: 4, StreamOutput: "Res", Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs["T1"].Cardinality() != 100 {
		t.Errorf("T1 = %d tuples, want 100", res.Outputs["T1"].Cardinality())
	}
	if len(sink.tuples) != db.ExpectedJoinCount() {
		t.Errorf("streamed %d join tuples, want %d", len(sink.tuples), db.ExpectedJoinCount())
	}
}

// TestStreamValidation: bad streaming options fail fast instead of
// deadlocking or silently materializing.
func TestStreamValidation(t *testing.T) {
	db, err := workload.NewJoinDB(500, 50, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.IdealJoinPlan(lera.HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := execute(plan, db.Relations(), Options{StreamOutput: "Res"}); err == nil {
		t.Error("StreamOutput without Sink accepted")
	}
	if _, err := execute(plan, db.Relations(), Options{StreamOutput: "nope", Sink: &collectSink{}}); err == nil {
		t.Error("unknown StreamOutput accepted")
	}

	// An intermediate output read by a later chain cannot stream.
	g := lera.NewGraph()
	f := g.Filter("f", "Br", lera.ColConst{Col: "k", Op: lera.GE, Val: relation.Int(0)})
	s1 := g.Store("s1", "T1")
	g.ConnectSame(f, s1)
	tr := g.Transmit("t", "T1")
	j := g.JoinPipelined("j", "A", []string{"k"}, []string{"k"}, lera.HashJoin)
	s2 := g.Store("s2", "Res")
	g.ConnectHash(tr, j, []string{"k"})
	g.ConnectSame(j, s2)
	mplan, err := lera.Bind(g, db.Resolver())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := execute(mplan, db.Relations(), Options{StreamOutput: "T1", Sink: &collectSink{}}); err == nil {
		t.Error("streaming an output read by a later chain accepted")
	}
}

// blockingSink mimics a bounded cursor: a tiny channel plus a context, so
// pushes block once the consumer stops reading and unblock on cancellation.
type blockingSink struct {
	ctx context.Context
	ch  chan relation.Tuple
}

func (s *blockingSink) Push(t relation.Tuple) error {
	select {
	case s.ch <- t:
		return nil
	case <-s.ctx.Done():
		return s.ctx.Err()
	}
}

// TestStreamBackpressureCancel: a producer blocked on a full sink is
// released by context cancellation and the execution returns ctx.Err()
// without leaking goroutines or deadlocking.
func TestStreamBackpressureCancel(t *testing.T) {
	db, err := workload.NewJoinDB(4000, 400, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.IdealJoinPlan(lera.HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sink := &blockingSink{ctx: ctx, ch: make(chan relation.Tuple, 4)}
	done := make(chan error, 1)
	go func() {
		_, err := ExecuteContext(ctx, plan, db.Relations(), Options{Threads: 4, StreamOutput: "Res", Sink: sink})
		done <- err
	}()
	// Consume a few rows — proof the stream yields before completion — then
	// walk away and cancel.
	for i := 0; i < 3; i++ {
		<-sink.ch
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// errSink returns err from every Push after the first after ones.
type errSink struct {
	n     atomic.Int64
	after int64
	err   error
}

func (s *errSink) Push(relation.Tuple) error {
	if s.n.Add(1) > s.after {
		return s.err
	}
	return nil
}

// TestSinkErrorFailsProducer: a sink runs inside the operation feeding it,
// so a Push error fails that operation and the execution.
func TestSinkErrorFailsProducer(t *testing.T) {
	db, err := workload.NewJoinDB(2000, 200, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.IdealJoinPlan(lera.HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("client gone")
	_, err = execute(plan, db.Relations(), Options{Threads: 2, StreamOutput: "Res", Sink: &errSink{after: 10, err: boom}})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "operation join") {
		t.Fatalf("err = %v, want the sink's error failing the join", err)
	}
}

// TestHashFedStore: a store fed over a hash edge takes each tuple into the
// instance its router names, through the producer's per-destination buffers
// (flushed at the grain and at every batch boundary).
func TestHashFedStore(t *testing.T) {
	db, err := workload.NewJoinDB(2000, 200, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := lera.NewGraph()
	s := g.Store("s", "Res")
	g.ConnectHash(g.Filter("f", "Br", nil), s, []string{"k"})
	plan, err := lera.Bind(g, db.Resolver())
	if err != nil {
		t.Fatal(err)
	}
	for _, grain := range []int{1, 7, DefaultBatchGrain} {
		res, err := execute(plan, db.Relations(), Options{Threads: 2, BatchGrain: grain})
		if err != nil {
			t.Fatal(err)
		}
		out := res.Outputs["Res"]
		if out.Cardinality() != 200 {
			t.Fatalf("grain %d: stored %d tuples, want 200", grain, out.Cardinality())
		}
		for i, frag := range out.Fragments {
			for _, dst := range plan.Nodes[s.ID].Router.FragmentsOfCols(frag, []int{0}, nil) {
				if int(dst) != i {
					t.Fatalf("grain %d: a tuple routed to %d stored in fragment %d", grain, dst, i)
				}
			}
		}
	}
}
