package core

// Batch-at-a-time data plane tests: Queue.PushBatch unit semantics, the one
// operator contract (every operator, whatever run lengths OnBatch is handed,
// emits the same multiset and accounts the same activations), and the
// equivalence property the whole design rests on — a batched, vectorized
// execution (BatchGrain > 1, whole popped runs per OnBatch) is
// indistinguishable from the per-tuple protocol (BatchGrain = 1 with
// NoVectorize: one queue push and one OnBatch call per tuple) in everything
// but speed: identical result multisets, identical per-operator
// activation/emission accounting (tuples, never batches), identical
// per-worker activation counts when the allocation is deterministic, and
// identical cancellation behavior mid-batch.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbs3/internal/esql"
	"dbs3/internal/lera"
	"dbs3/internal/operator"
	"dbs3/internal/partition"
	"dbs3/internal/relation"
	"dbs3/internal/workload"
)

// --- Queue.PushBatch unit tests --------------------------------------------

func TestQueuePushBatchFIFOAndReuse(t *testing.T) {
	q := NewQueue(16)
	batch := make([]Activation, 0, 5)
	for i := int64(0); i < 5; i++ {
		batch = append(batch, tupleAct(i))
	}
	q.PushBatch(batch)
	// The queue copied the activations: clobbering the caller's slice must
	// not disturb what was pushed.
	for i := range batch {
		batch[i] = tupleAct(99)
	}
	got := q.PopBatch(10, nil)
	if len(got) != 5 {
		t.Fatalf("popped %d, want 5", len(got))
	}
	for i, a := range got {
		if a.Tuple[0].AsInt() != int64(i) {
			t.Fatalf("order/copy violated at %d: %v", i, a.Tuple)
		}
	}
}

func TestQueuePushBatchLargerThanCapacity(t *testing.T) {
	// A batch bigger than the queue must fill, wait for drains, and deliver
	// everything in order — the backpressure protocol at batch granularity.
	q := NewQueue(4)
	const n = 50
	batch := make([]Activation, 0, n)
	for i := int64(0); i < n; i++ {
		batch = append(batch, tupleAct(i))
	}
	done := make(chan struct{})
	go func() {
		q.PushBatch(batch)
		close(done)
	}()
	next := int64(0)
	deadline := time.After(5 * time.Second)
	for next < n {
		for _, a := range q.PopBatch(3, nil) {
			if a.Tuple[0].AsInt() != next {
				t.Errorf("out of order: got %v, want %d", a.Tuple, next)
			}
			next++
		}
		select {
		case <-deadline:
			t.Fatalf("drained only %d of %d", next, n)
		default:
		}
	}
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("PushBatch never returned after full drain")
	}
}

func TestQueuePushBatchNotifiesBeforeBlocking(t *testing.T) {
	// The partial fill must wake consumers before the producer blocks for
	// the remainder, or a full queue with sleeping consumers deadlocks.
	q := NewQueue(2)
	woken := make(chan struct{}, 10)
	q.onPush = func() { woken <- struct{}{} }
	batch := []Activation{tupleAct(1), tupleAct(2), tupleAct(3)}
	go q.PushBatch(batch)
	select {
	case <-woken:
	case <-time.After(time.Second):
		t.Fatal("no consumer wake for the delivered part of a blocked batch")
	}
	if got := q.PopBatch(10, nil); len(got) != 2 {
		t.Fatalf("delivered part = %d activations, want 2", len(got))
	}
}

func TestQueuePushBatchAbortDrops(t *testing.T) {
	q := NewQueue(2)
	q.Push(tupleAct(1))
	q.Push(tupleAct(2))
	done := make(chan struct{})
	go func() {
		q.PushBatch([]Activation{tupleAct(3), tupleAct(4)})
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	q.Abort()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Abort did not release a blocked PushBatch")
	}
	q.PushBatch([]Activation{tupleAct(5)}) // dropped, must not block or panic
	if q.Len() != 2 {
		t.Errorf("aborted queue grew: len = %d", q.Len())
	}
}

func TestQueuePushBatchClosedPanics(t *testing.T) {
	q := NewQueue(4)
	q.Close()
	defer func() {
		if recover() == nil {
			t.Error("PushBatch to closed queue should panic")
		}
	}()
	q.PushBatch([]Activation{tupleAct(1)})
}

func TestBatchGrainDefaultsAndClamp(t *testing.T) {
	if o := (Options{}).withDefaults(); o.BatchGrain != DefaultBatchGrain {
		t.Errorf("default grain = %d, want %d", o.BatchGrain, DefaultBatchGrain)
	}
	if o := (Options{BatchGrain: -3}).withDefaults(); o.BatchGrain != 1 {
		t.Errorf("negative grain = %d, want 1", o.BatchGrain)
	}
	// The grain is a per-destination buffer capacity; it must clamp to the
	// queue capacity, not be trusted.
	if o := (Options{BatchGrain: 1 << 30}).withDefaults(); o.BatchGrain != o.QueueCap {
		t.Errorf("huge grain = %d, want clamp to queue cap %d", o.BatchGrain, o.QueueCap)
	}
	if o := (Options{BatchGrain: 1 << 30, QueueCap: 8}).withDefaults(); o.BatchGrain != 8 {
		t.Errorf("grain = %d, want clamp to explicit queue cap 8", o.BatchGrain)
	}
}

// --- The one operator contract ----------------------------------------------

// contractInstances is the degree of the operations the contract table runs;
// a tuple with key k belongs to instance k % contractInstances, which is also
// where its join partners and its group live.
const contractInstances = 3

// contractInput is the pipelined stream fed to every operator: (k, id, pad)
// tuples over 40 keys.
func contractInput() []relation.Tuple {
	in := make([]relation.Tuple, 600)
	for i := range in {
		in[i] = relation.NewTuple(relation.Int(int64(i%40)), relation.Int(int64(i)), relation.Str(fmt.Sprintf("pad-%d", i%7)))
	}
	return in
}

var contractSchema = relation.MustSchema(
	relation.Column{Name: "k", Type: relation.TInt},
	relation.Column{Name: "id", Type: relation.TInt},
	relation.Column{Name: "pad", Type: relation.TString},
)

// sortedKeys renders a tuple multiset in canonical order.
func sortedKeys(ts []relation.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Key()
	}
	sort.Strings(out)
	return out
}

// batchCollectSink is a RowBatchSink: pushRuns hands its PushBatch to the
// Sink unchanged instead of wrapping Push.
type batchCollectSink struct{ collectSink }

func (s *batchCollectSink) PushBatch(ts []relation.Tuple) error {
	s.mu.Lock()
	s.tuples = append(s.tuples, ts...)
	s.mu.Unlock()
	return nil
}

// TestOperatorContract runs every operator as a pipelined operation fed the
// same tuple activations, cutting the OnBatch runs at length 1, 7 and 64 (the
// internal cache size bounds a run) with and without NoVectorize (runs of one
// whatever the cache size). What comes out — emissions plus, for the
// chain-terminating operators, what they stored or pushed — must be the same
// multiset every way, and so must OpStats.Activations and Emitted. The
// operators that run triggered (filter, transmit, the joins) also run with
// each instance's share of the input bound as its Input and fed through
// InjectTriggers, as whole-fragment triggers and as partial triggers of 7
// tuples: the same multiset and Emitted again, one activation per trigger.
func TestOperatorContract(t *testing.T) {
	pred, err := (lera.ColConst{Col: "k", Op: lera.LT, Val: relation.Int(17)}).Bind(contractSchema)
	if err != nil {
		t.Fatal(err)
	}
	// Each case builds a fresh operator; consumed, when non-nil, reads back
	// what a chain-terminating operator's instances took in instead of
	// emitting.
	type built struct {
		op       operator.Operator
		consumed func(ctxs []*operator.Context) ([]relation.Tuple, error)
	}
	join := func(algo lera.JoinAlgo) func() built {
		return func() built {
			return built{op: &operator.Join{Algo: algo, BuildKey: []int{0}, ProbeKey: []int{0}}}
		}
	}
	cases := []struct {
		name      string
		build     func() built
		triggered bool
	}{
		{"filter", func() built { return built{op: &operator.Filter{Pred: pred}} }, true},
		{"transmit", func() built { return built{op: &operator.Transmit{}} }, true},
		{"map", func() built { return built{op: &operator.Map{Cols: []int{2, 0}}} }, false},
		{"store", func() built {
			s := &operator.Store{}
			return built{op: s, consumed: func(ctxs []*operator.Context) ([]relation.Tuple, error) {
				frags, err := s.Results(ctxs)
				var all []relation.Tuple
				for _, f := range frags {
					all = append(all, f...)
				}
				return all, err
			}}
		}, false},
		{"sink/push", func() built {
			var got collectSink
			return built{op: &operator.Sink{Push: pushRuns(&got)}, consumed: func([]*operator.Context) ([]relation.Tuple, error) { return got.tuples, nil }}
		}, false},
		{"sink/pushbatch", func() built {
			got := &batchCollectSink{}
			return built{op: &operator.Sink{Push: pushRuns(got)}, consumed: func([]*operator.Context) ([]relation.Tuple, error) { return got.tuples, nil }}
		}, false},
		{"join/hash", join(lera.HashJoin), true},
		{"join/temp-index", join(lera.TempIndex), true},
		{"join/nested-loop", join(lera.NestedLoop), true},
		{"aggregate", func() built {
			return built{op: &operator.Aggregate{GroupBy: []int{0}, Kind: lera.AggSum, AggCol: 1}}
		}, false},
	}

	input := contractInput()
	// run executes b over the input, pipelined in runs of runLen, or — when
	// trigGrain is non-negative — triggered at that grain.
	run := func(b built, runLen int, noVec bool, trigGrain int) (out []string, activations, emitted int64) {
		ctxs := make([]*operator.Context, contractInstances)
		for i := range ctxs {
			ctxs[i] = &operator.Context{Instance: i}
			// Two build tuples per key of this instance, for the join rows.
			for k := i; k < 40; k += contractInstances {
				for c := 0; c < 2; c++ {
					ctxs[i].Build = append(ctxs[i].Build, relation.NewTuple(relation.Int(int64(k)), relation.Int(int64(c)), relation.Str("build")))
				}
			}
		}
		// The queues hold an instance's whole input, fed before the pool
		// starts, so every drain is a full cache: runs really are runLen long.
		o := newOperation("contract", 0, b.op, ctxs, len(input), 2, runLen, StrategyRandom, 1, trigGrain >= 0)
		o.noVectorize = noVec
		var sunk collectSink
		sinkTo(o, &sunk)
		for _, tup := range input {
			i := int(tup[0].AsInt()) % contractInstances
			if trigGrain >= 0 {
				ctxs[i].Input = append(ctxs[i].Input, tup)
			} else {
				o.Queues[i].Push(Activation{Tuple: tup})
			}
		}
		if trigGrain >= 0 {
			o.InjectTriggers(trigGrain)
		} else {
			for _, q := range o.Queues {
				q.Close()
			}
		}
		var wg sync.WaitGroup
		o.run(&wg)
		wg.Wait()
		if err := o.Err(); err != nil {
			t.Fatal(err)
		}
		all := sunk.tuples
		if b.consumed != nil {
			ts, err := b.consumed(ctxs)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, ts...)
		}
		return sortedKeys(all), o.Stats().Activations.Load(), o.Stats().Emitted.Load()
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref, refActs, refEmitted := run(c.build(), 1, true, -1)
			if len(ref) == 0 {
				t.Fatal("reference run produced nothing")
			}
			if refActs != int64(len(input)) {
				t.Fatalf("reference processed %d activations, want %d", refActs, len(input))
			}
			for _, runLen := range []int{1, 7, 64} {
				for _, noVec := range []bool{true, false} {
					got, acts, emitted := run(c.build(), runLen, noVec, -1)
					if !slices.Equal(got, ref) {
						t.Errorf("run length %d, NoVectorize %v: %d tuples out, differing from the %d of the runs-of-one reference", runLen, noVec, len(got), len(ref))
					}
					if acts != refActs || emitted != refEmitted {
						t.Errorf("run length %d, NoVectorize %v: activations/emitted %d/%d, want %d/%d", runLen, noVec, acts, emitted, refActs, refEmitted)
					}
				}
			}
			if !c.triggered {
				return
			}
			var spans [contractInstances]int
			for _, tup := range input {
				spans[int(tup[0].AsInt())%contractInstances]++
			}
			for _, grain := range []int{0, 7} {
				got, acts, emitted := run(c.build(), 64, false, grain)
				if !slices.Equal(got, ref) {
					t.Errorf("trigger grain %d: %d tuples out, differing from the %d of the pipelined reference", grain, len(got), len(ref))
				}
				want := int64(contractInstances)
				if grain > 0 {
					want = 0
					for _, n := range spans {
						want += int64((n + grain - 1) / grain)
					}
				}
				if acts != want || emitted != refEmitted {
					t.Errorf("trigger grain %d: activations/emitted %d/%d, want %d/%d", grain, acts, emitted, want, refEmitted)
				}
			}
		})
	}
}

// --- Batch-vs-tuple equivalence property -----------------------------------

// grainsUnderTest pits the per-tuple protocol against a deliberately awkward
// grain (forcing partial flushes at trigger boundaries) and the default.
var grainsUnderTest = []int{7, DefaultBatchGrain}

// vectorGrains drives the vectorized path against the per-tuple reference:
// grain 1 (runs of one tuple — the degenerate OnBatch), an awkward odd
// grain, and the default.
var vectorGrains = []int{1, 7, DefaultBatchGrain}

// statsSnapshot flattens the per-node counters that must not depend on the
// transport grain.
func statsSnapshot(res *Result) map[int][3]int64 {
	out := make(map[int][3]int64, len(res.Stats))
	for id, st := range res.Stats {
		out[id] = [3]int64{st.Activations.Load(), st.Emitted.Load(), st.Setups.Load()}
	}
	return out
}

func TestBatchGrainEquivalenceJoins(t *testing.T) {
	for _, theta := range []float64{0, 1} { // flat and Zipf-skewed placement
		db, err := workload.NewJoinDB(2000, 200, 8, theta)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []lera.JoinAlgo{lera.NestedLoop, lera.HashJoin, lera.TempIndex} {
			for _, assoc := range []bool{false, true} {
				for _, trigGrain := range []int{0, 3} { // whole-fragment and partial triggers
					name := fmt.Sprintf("theta=%v/algo=%v/assoc=%v/grain=%d", theta, algo, assoc, trigGrain)
					// Reference: the strict per-tuple protocol — grain 1 AND
					// vectorization off, so every tuple is its own OnBatch run.
					base := Options{Threads: 4, TriggerGrain: trigGrain, BatchGrain: 1, NoVectorize: true}
					ref := executeJoin(t, db, assoc, algo, base)
					refRel, err := ref.Relation("Res")
					if err != nil {
						t.Fatal(err)
					}
					refStats := statsSnapshot(ref)
					if err := db.VerifyJoinResult(ref.Outputs["Res"]); err != nil {
						t.Fatalf("%s: per-tuple reference wrong: %v", name, err)
					}
					for _, bg := range vectorGrains {
						opts := base
						opts.BatchGrain = bg
						opts.NoVectorize = false
						got := executeJoin(t, db, assoc, algo, opts)
						gotRel, err := got.Relation("Res")
						if err != nil {
							t.Fatal(err)
						}
						if !gotRel.EqualMultiset(refRel) {
							t.Errorf("%s: vectorized grain %d result differs from per-tuple reference", name, bg)
						}
						if gs := statsSnapshot(got); !statsEqual(gs, refStats) {
							t.Errorf("%s: vectorized grain %d accounting %v, per-tuple %v — activations must count tuples, not batches",
								name, bg, gs, refStats)
						}
					}
				}
			}
		}
	}
}

func statsEqual(a, b map[int][3]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for id, v := range a {
		if b[id] != v {
			return false
		}
	}
	return true
}

// wisconsinPlan compiles an ESQL statement against a generated Wisconsin
// relation partitioned on the given key — hash-partitioning on a
// low-cardinality column like "four" leaves most fragments empty, the
// placement-skew shape the consumption strategies exist for. materialize
// splits the plan into two chains at a store before the aggregation.
func wisconsinPlan(t *testing.T, sql, partKey string, card, degree int, materialize bool) (*lera.Plan, DB) {
	t.Helper()
	r := relation.Wisconsin("wisc", card, 42)
	h, err := partition.NewHash(r.Schema, []string{partKey}, degree)
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.Partition(r, h, 1)
	if err != nil {
		t.Fatal(err)
	}
	resolver := lera.MapResolver{"wisc": {Schema: p.Schema, Degree: degree, FragSizes: p.FragmentSizes(), Part: h}}
	c := &esql.Compiler{Resolver: resolver, JoinAlgo: lera.HashJoin, Materialize: materialize}
	plan, _, err := c.Compile(sql)
	if err != nil {
		t.Fatal(err)
	}
	return plan, DB{"wisc": p}
}

func TestBatchGrainEquivalenceAggregate(t *testing.T) {
	for _, partKey := range []string{"unique2", "four"} { // flat and skewed placement
		for _, materialize := range []bool{false, true} { // one chain, and two around a store
			for _, sql := range []string{
				"SELECT ten, COUNT(*) FROM wisc GROUP BY ten",
				"SELECT four, SUM(unique1) FROM wisc GROUP BY four",
				"SELECT onePercent, MAX(unique2) FROM wisc WHERE unique1 < 3000 GROUP BY onePercent",
			} {
				name := fmt.Sprintf("part=%s materialize=%v sql=%q", partKey, materialize, sql)
				plan, db := wisconsinPlan(t, sql, partKey, 4000, 8, materialize)
				if chains := len(plan.Chains); materialize && chains != 2 {
					t.Fatalf("%s: %d chains, want 2", name, chains)
				}
				run := func(bg int, noVec bool) (*relation.Relation, map[int][3]int64) {
					res, err := execute(plan, db, Options{Threads: 4, BatchGrain: bg, NoVectorize: noVec})
					if err != nil {
						t.Fatalf("%s grain=%d: %v", name, bg, err)
					}
					rel, err := res.Relation(esql.OutputName)
					if err != nil {
						t.Fatal(err)
					}
					return rel, statsSnapshot(res)
				}
				refRel, refStats := run(1, true) // strict per-tuple reference
				if refRel.Cardinality() == 0 {
					t.Fatalf("%s: empty reference result", name)
				}
				for _, bg := range vectorGrains {
					gotRel, gotStats := run(bg, false)
					if !gotRel.EqualMultiset(refRel) {
						t.Errorf("%s: vectorized grain %d result differs from per-tuple reference", name, bg)
					}
					if !statsEqual(gotStats, refStats) {
						t.Errorf("%s: vectorized grain %d accounting %v, per-tuple %v", name, bg, gotStats, refStats)
					}
				}
			}
		}
	}
}

// TestBatchGrainPerWorkerActivationCounts pins the strongest accounting
// claim: per-worker activation counts (OpStats.WorkerActivations) are
// identical across batch grains wherever they are deterministic — every
// single-worker pool — and their per-node sums are identical everywhere
// (multi-worker pools interleave nondeterministically at any grain). The
// transport batches, the accounting never does.
func TestBatchGrainPerWorkerActivationCounts(t *testing.T) {
	db, err := workload.NewJoinDB(1500, 150, 6, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.AssocJoinPlan(lera.HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	run := func(bg int) (map[int][]int64, Allocation) {
		res, err := execute(plan, db.Relations(), Options{Threads: len(plan.Nodes), BatchGrain: bg})
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[int][]int64)
		for id := range res.Stats {
			out[id] = res.Stats[id].WorkerActivations()
		}
		return out, res.Alloc
	}
	sum := func(ws []int64) int64 {
		var s int64
		for _, w := range ws {
			s += w
		}
		return s
	}
	ref, refAlloc := run(1)
	singleWorkerNodes := 0
	for _, n := range refAlloc.Node {
		if n == 1 {
			singleWorkerNodes++
		}
	}
	if singleWorkerNodes == 0 {
		t.Fatalf("allocation %v has no single-worker pool; the deterministic check needs one", refAlloc.Node)
	}
	for _, bg := range grainsUnderTest {
		got, gotAlloc := run(bg)
		for id, want := range ref {
			g := got[id]
			if len(g) != len(want) {
				t.Fatalf("node %d: worker count %d vs %d", id, len(g), len(want))
			}
			if sum(g) != sum(want) {
				t.Errorf("node %d: grain %d processed %d activations total, grain 1 processed %d",
					id, bg, sum(g), sum(want))
			}
			if refAlloc.Node[id] == 1 && gotAlloc.Node[id] == 1 && g[0] != want[0] {
				t.Errorf("node %d (single worker): grain %d processed %d activations, grain 1 processed %d",
					id, bg, g[0], want[0])
			}
		}
	}
}

// cancelSink cancels the execution's context after n pushed rows — the
// cursor-close shape, landing mid-batch from the engine's point of view.
type cancelSink struct {
	n      atomic.Int64
	after  int64
	cancel context.CancelFunc
}

func (s *cancelSink) Push(relation.Tuple) error {
	if s.n.Add(1) == s.after {
		s.cancel()
	}
	return nil
}

// TestBatchGrainCancellationMidBatch: cancelling while route buffers are in
// flight behaves exactly like the per-tuple protocol — prompt ctx.Err(), no
// goroutine leaks, blocked producers drained — at every grain.
func TestBatchGrainCancellationMidBatch(t *testing.T) {
	db, err := workload.NewJoinDB(30_000, 3_000, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.AssocJoinPlan(lera.HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	for _, bg := range []int{1, 7, DefaultBatchGrain} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		sink := &cancelSink{after: 50, cancel: cancel}
		// Tiny queues: producers sit in PushBatch backpressure when the
		// abort lands, proving the batched push drains on Abort.
		_, err := ExecuteContext(ctx, plan, db.Relations(), Options{
			Threads: 4, QueueCap: 2, BatchGrain: bg,
			StreamOutput: "Res", Sink: sink,
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("grain %d: err = %v, want context.Canceled", bg, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("grain %d: goroutines leaked: %d before, %d after", bg, before, n)
		}
	}
}
