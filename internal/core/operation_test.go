package core

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"dbs3/internal/operator"
	"dbs3/internal/relation"
)

// stubOperator records calls and can be told to fail; onBatch, when set,
// sees every run handed to OnBatch.
type stubOperator struct {
	mu          sync.Mutex
	setups      int
	tuples      int
	closes      []int
	failSetup   error
	failTuple   error
	failClose   error
	emitOnClose bool
	onBatch     func(ts []relation.Tuple)
}

func (s *stubOperator) Setup(ctx *operator.Context) error {
	s.mu.Lock()
	s.setups++
	s.mu.Unlock()
	return s.failSetup
}

func (s *stubOperator) OnBatch(ctx *operator.Context, ts []relation.Tuple, emit operator.Emit) error {
	s.mu.Lock()
	s.tuples += len(ts)
	s.mu.Unlock()
	if s.onBatch != nil {
		s.onBatch(ts)
	}
	return s.failTuple
}

func (s *stubOperator) OnClose(ctx *operator.Context, emit operator.Emit) error {
	s.mu.Lock()
	s.closes = append(s.closes, ctx.Instance)
	s.mu.Unlock()
	if s.emitOnClose {
		emit(relation.NewTuple(relation.Int(int64(ctx.Instance))))
	}
	return s.failClose
}

func newTestOperation(op operator.Operator, instances, workers int) *Operation {
	ctxs := make([]*operator.Context, instances)
	for i := range ctxs {
		ctxs[i] = &operator.Context{Instance: i}
	}
	o := newOperation("test", 0, op, ctxs, 16, workers, 4, StrategyRandom, 1, false)
	sinkTo(o, &collectSink{})
	return o
}

// sinkTo routes o's output into sink through a terminal target, the way the
// engine wires a chain's streamed result.
func sinkTo(o *Operation, sink *collectSink) {
	term, err := newTerminal(&operator.Sink{Push: pushRuns(sink)}, o.ctxs)
	if err != nil {
		panic(err)
	}
	o.targets = []routeTarget{{term: term, degree: len(o.ctxs), same: true}}
}

func runOperation(t *testing.T, o *Operation, feed func(*Operation)) {
	t.Helper()
	var wg sync.WaitGroup
	o.run(&wg)
	feed(o)
	wg.Wait()
}

func TestOperationProcessesAllActivations(t *testing.T) {
	stub := &stubOperator{}
	o := newTestOperation(stub, 4, 3)
	runOperation(t, o, func(o *Operation) {
		for i, q := range o.Queues {
			for j := 0; j < 10; j++ {
				q.Push(tupleAct(int64(i*10 + j)))
			}
			q.Close()
		}
	})
	if stub.tuples != 40 {
		t.Errorf("processed %d tuples, want 40", stub.tuples)
	}
	if got := o.Stats().Activations.Load(); got != 40 {
		t.Errorf("stats activations = %d", got)
	}
	if err := o.Err(); err != nil {
		t.Errorf("unexpected error %v", err)
	}
}

func TestOperationRunsOnClosePerInstanceExactlyOnce(t *testing.T) {
	stub := &stubOperator{}
	o := newTestOperation(stub, 5, 2)
	runOperation(t, o, func(o *Operation) {
		// Activations only on instances 0 and 3; 1, 2, 4 stay empty.
		o.Queues[0].Push(tupleAct(1))
		o.Queues[3].Push(tupleAct(2))
		for _, q := range o.Queues {
			q.Close()
		}
	})
	if len(stub.closes) != 5 {
		t.Fatalf("OnClose ran for %d instances, want 5 (including empty ones)", len(stub.closes))
	}
	seen := map[int]bool{}
	for _, inst := range stub.closes {
		if seen[inst] {
			t.Fatalf("OnClose ran twice for instance %d", inst)
		}
		seen[inst] = true
	}
	// Setup must also have run for every instance (close needs state).
	if stub.setups != 5 {
		t.Errorf("setups = %d, want 5", stub.setups)
	}
}

func TestOperationCompleteCallbackFiresOnce(t *testing.T) {
	stub := &stubOperator{}
	o := newTestOperation(stub, 3, 4)
	var completions atomic.Int32
	o.onComplete = func() { completions.Add(1) }
	runOperation(t, o, func(o *Operation) {
		for _, q := range o.Queues {
			q.Push(tupleAct(7))
			q.Close()
		}
	})
	if got := completions.Load(); got != 1 {
		t.Errorf("onComplete fired %d times", got)
	}
}

func TestOperationOnCloseMayEmit(t *testing.T) {
	stub := &stubOperator{emitOnClose: true}
	o := newTestOperation(stub, 3, 2)
	var sink collectSink
	sinkTo(o, &sink)
	runOperation(t, o, func(o *Operation) {
		for _, q := range o.Queues {
			q.Close()
		}
	})
	if got := len(sink.tuples); got != 3 {
		t.Errorf("OnClose emissions = %d, want 3", got)
	}
	if got := o.Stats().Emitted.Load(); got != 3 {
		t.Errorf("stats emitted = %d", got)
	}
}

func TestOperationTupleErrorPropagates(t *testing.T) {
	stub := &stubOperator{failTuple: errors.New("boom")}
	o := newTestOperation(stub, 2, 2)
	runOperation(t, o, func(o *Operation) {
		for _, q := range o.Queues {
			q.Push(tupleAct(1))
			q.Close()
		}
	})
	if err := o.Err(); err == nil || !errors.Is(err, stub.failTuple) {
		t.Errorf("Err = %v, want boom", err)
	}
}

func TestOperationSetupErrorPropagates(t *testing.T) {
	stub := &stubOperator{failSetup: errors.New("setup failed")}
	o := newTestOperation(stub, 2, 1)
	runOperation(t, o, func(o *Operation) {
		for _, q := range o.Queues {
			q.Push(tupleAct(1))
			q.Close()
		}
	})
	if err := o.Err(); err == nil {
		t.Error("setup failure not reported")
	}
}

func TestOperationCloseErrorPropagates(t *testing.T) {
	stub := &stubOperator{failClose: errors.New("close failed")}
	o := newTestOperation(stub, 2, 1)
	runOperation(t, o, func(o *Operation) {
		for _, q := range o.Queues {
			q.Close()
		}
	})
	if err := o.Err(); err == nil {
		t.Error("close failure not reported")
	}
}

func TestOperationFirstErrorWins(t *testing.T) {
	first := errors.New("first")
	stub := &stubOperator{failTuple: first}
	o := newTestOperation(stub, 2, 1)
	runOperation(t, o, func(o *Operation) {
		for _, q := range o.Queues {
			q.Push(tupleAct(1))
			q.Push(tupleAct(2))
			q.Close()
		}
	})
	if err := o.Err(); err == nil || !errors.Is(err, first) {
		t.Errorf("Err = %v", err)
	}
}

// fragment returns n one-column tuples numbered from 0.
func fragment(n int) []relation.Tuple {
	ts := make([]relation.Tuple, n)
	for i := range ts {
		ts[i] = relation.NewTuple(relation.Int(int64(i)))
	}
	return ts
}

// TestOperationTriggerDispatch: a whole-fragment trigger delivers its
// instance's bound Input to OnBatch, every tuple once, and an instance with
// nothing bound delivers nothing.
func TestOperationTriggerDispatch(t *testing.T) {
	stub := &stubOperator{}
	o := newTestOperation(stub, 3, 2)
	o.ctxs[0].Input = fragment(2*triggerRun + 5)
	o.ctxs[1].Input = fragment(7)
	runOperation(t, o, func(o *Operation) {
		for _, q := range o.Queues {
			q.Push(Activation{}) // trigger
			q.Close()
		}
	})
	if want := 2*triggerRun + 5 + 7; stub.tuples != want {
		t.Errorf("triggers delivered %d tuples, want %d", stub.tuples, want)
	}
	if got := o.Stats().Activations.Load(); got != 3 {
		t.Errorf("stats activations = %d, want one per trigger", got)
	}
}

// TestTriggerAbortStopsAfterOneRun: a trigger reaches OnBatch as runs of
// triggerRun tuples with the abort flag polled before each, so an operator
// that cancels the operation during its first run sees no second, however
// large the fragment.
func TestTriggerAbortStopsAfterOneRun(t *testing.T) {
	stub := &stubOperator{}
	o := newTestOperation(stub, 1, 1)
	o.ctxs[0].Input = fragment(10 * triggerRun)
	var runs []int
	stub.onBatch = func(ts []relation.Tuple) {
		runs = append(runs, len(ts))
		o.abort()
	}
	runOperation(t, o, func(o *Operation) {
		o.Queues[0].Push(Activation{})
		o.Queues[0].Close()
	})
	if !slices.Equal(runs, []int{triggerRun}) {
		t.Errorf("OnBatch runs after an abort in the first: %v, want [%d]", runs, triggerRun)
	}
}

// TestPartialTriggerRuns: a partial trigger hands OnBatch exactly its
// [Lo, Hi) slice of the bound Input, in order, cut into runs of at most
// triggerRun.
func TestPartialTriggerRuns(t *testing.T) {
	stub := &stubOperator{}
	o := newTestOperation(stub, 1, 1)
	o.ctxs[0].Input = fragment(10 * triggerRun)
	var runs []int
	var got []int64
	stub.onBatch = func(ts []relation.Tuple) {
		runs = append(runs, len(ts))
		for _, t := range ts {
			got = append(got, t[0].AsInt())
		}
	}
	runOperation(t, o, func(o *Operation) {
		o.Queues[0].Push(Activation{Lo: 3, Hi: 300})
		o.Queues[0].Close()
	})
	if want := []int{triggerRun, 300 - 3 - triggerRun}; !slices.Equal(runs, want) {
		t.Errorf("run lengths %v, want %v", runs, want)
	}
	for i, k := range got {
		if k != int64(3+i) {
			t.Fatalf("tuple %d of the runs is %d, want %d", i, k, 3+i)
		}
	}
	if len(got) != 300-3 {
		t.Errorf("partial trigger delivered %d tuples, want %d", len(got), 300-3)
	}
}

func TestOperationMoreWorkersThanQueues(t *testing.T) {
	stub := &stubOperator{}
	o := newTestOperation(stub, 2, 8)
	runOperation(t, o, func(o *Operation) {
		for _, q := range o.Queues {
			for j := 0; j < 100; j++ {
				q.Push(tupleAct(int64(j)))
			}
			q.Close()
		}
	})
	if stub.tuples != 200 {
		t.Errorf("tuples = %d", stub.tuples)
	}
}

func TestOperationBatchesRespectCache(t *testing.T) {
	stub := &stubOperator{}
	o := newTestOperation(stub, 1, 1)
	o.CacheSize = 4
	runOperation(t, o, func(o *Operation) {
		for j := 0; j < 16; j++ {
			o.Queues[0].Push(tupleAct(int64(j)))
		}
		o.Queues[0].Close()
	})
	batches := o.Stats().Batches.Load()
	if batches < 4 {
		t.Errorf("batches = %d; 16 activations with cache 4 need >= 4 drains", batches)
	}
	if stub.tuples != 16 {
		t.Errorf("tuples = %d", stub.tuples)
	}
}

func TestOperationDegreeAndClamps(t *testing.T) {
	stub := &stubOperator{}
	ctxs := []*operator.Context{{Instance: 0}}
	o := newOperation("t", 0, stub, ctxs, 0, 0, 0, StrategyRandom, 1, true)
	if o.Workers != 1 || o.CacheSize != 1 {
		t.Errorf("clamps: workers=%d cache=%d", o.Workers, o.CacheSize)
	}
	if len(o.Queues) != 1 {
		t.Errorf("degree = %d", len(o.Queues))
	}
}

func TestWorkerActivationBalance(t *testing.T) {
	stub := &stubOperator{}
	o := newTestOperation(stub, 8, 4)
	runOperation(t, o, func(o *Operation) {
		for _, q := range o.Queues {
			for j := 0; j < 50; j++ {
				q.Push(tupleAct(int64(j)))
			}
			q.Close()
		}
	})
	counts := o.Stats().WorkerActivations()
	if len(counts) != 4 {
		t.Fatalf("per-worker counts = %v", counts)
	}
	var sum int64
	for _, c := range counts {
		sum += c
	}
	if sum != 400 {
		t.Errorf("per-worker counts sum to %d, want 400", sum)
	}
	// With plenty of queued work, every thread processes something and the
	// balance ratio stays bounded.
	ratio := o.Stats().BalanceRatio()
	if ratio < 1 || ratio > 4 {
		t.Errorf("balance ratio = %v (counts %v)", ratio, counts)
	}
}

func TestBalanceRatioDegenerate(t *testing.T) {
	s := &OpStats{}
	if s.BalanceRatio() != 1 {
		t.Error("empty stats should balance at 1")
	}
	s2 := &OpStats{perWorker: make([]atomic.Int64, 3)}
	if s2.BalanceRatio() != 1 {
		t.Error("zero-work stats should balance at 1")
	}
}
