package runtime

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"dbs3/internal/core"
	"dbs3/internal/lera"
	"dbs3/internal/relation"
	"dbs3/internal/workload"
)

// twoChainPlan: chain 0 filters Br into T1, chain 1 repartitions T1 and
// joins it with A — one materialization point between them.
func twoChainPlan(t testing.TB) (*lera.Plan, core.DB) {
	t.Helper()
	db, err := workload.NewJoinDB(4_000, 400, 8, 0)
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
	return plan, db.Relations()
}

// TestReadmitReleasesSurplus: shrinking a reservation at a boundary returns
// threads to the budget immediately and is visible in the counters; growing
// later is capped by free headroom.
func TestReadmitReleasesSurplus(t *testing.T) {
	plan, db := twoChainPlan(t)
	m := NewManager(Config{Budget: 8})
	opts := core.Options{Threads: 6}
	adm, err := m.Admit(context.Background(), plan, db, &opts, PriorityInteractive)
	if err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.ThreadsInFlight != 6 {
		t.Fatalf("after Admit: %+v", st)
	}

	if grant := m.Readmit(adm, -1, 2, 1); grant != 2 {
		t.Fatalf("shrink grant = %d, want 2", grant)
	}
	st := m.Stats()
	if st.ThreadsInFlight != 2 || st.ThreadsReturnedEarly != 4 || st.Readmissions != 1 {
		t.Fatalf("after shrink: %+v", st)
	}

	// Growth takes only free budget: with 2 held and 6 free, a want of 8
	// is granted in full; with a bystander holding 4 of the remaining 6,
	// the same want caps at held+free and throttles against the fresh
	// utilization measurement.
	release, err := m.Reserve(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	grant := m.Readmit(adm, -1, 8, 1)
	// others = 4 of 8 -> utilization 0.5 -> effective want 4; free = 2, so
	// the grant lands at min(4, 2+2) = 4.
	if grant != 4 {
		t.Fatalf("constrained growth grant = %d, want 4", grant)
	}
	st = m.Stats()
	if st.ThreadsInFlight != 8 || st.ThreadsGrownMidFlight != 2 {
		t.Fatalf("after growth: %+v", st)
	}
	if st.PeakThreads > 8 {
		t.Fatalf("peak %d exceeded budget", st.PeakThreads)
	}
	release()
	adm.Finish(nil)
	st = m.Stats()
	if st.ThreadsInFlight != 0 || st.Active != 0 || st.Completed != 1 {
		t.Fatalf("after Finish: %+v", st)
	}
	if got := adm.Stats.ChainThreads; len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("ChainThreads trace = %v, want [2 4]", got)
	}
}

// TestReadmitAdmitsWaiterMidFlight is the acceptance scenario: a second
// query blocked on the budget is admitted into threads a multi-chain query
// returned at a chain boundary, before the first query finishes.
func TestReadmitAdmitsWaiterMidFlight(t *testing.T) {
	plan, db := twoChainPlan(t)
	m := NewManager(Config{Budget: 4})
	opts1 := core.Options{Threads: 4}
	adm1, err := m.Admit(context.Background(), plan, db, &opts1, PriorityInteractive)
	if err != nil {
		t.Fatal(err)
	}

	admitted := make(chan *Admission, 1)
	go func() {
		opts2 := core.Options{Threads: 3}
		adm2, err := m.Admit(context.Background(), plan, db, &opts2, PriorityInteractive)
		if err != nil {
			t.Error(err)
		}
		admitted <- adm2
	}()
	for m.Stats().Queued == 0 {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-admitted:
		t.Fatal("second query admitted while the budget was fully held")
	case <-time.After(20 * time.Millisecond):
	}

	// The boundary: query 1's next chain needs one thread; the surplus
	// admits query 2 while query 1 is still mid-flight.
	if grant := m.Readmit(adm1, -1, 1, 1); grant != 1 {
		t.Fatalf("grant = %d, want 1", grant)
	}
	var adm2 *Admission
	select {
	case adm2 = <-admitted:
	case <-time.After(5 * time.Second):
		t.Fatal("second query not admitted into mid-flight-freed threads")
	}
	st := m.Stats()
	if st.ThreadsInFlight != 4 || st.Active != 2 {
		t.Fatalf("both in flight: %+v", st)
	}
	if st.PeakThreads > 4 {
		t.Fatalf("budget exceeded: %+v", st)
	}
	adm1.Finish(nil)
	if adm2 != nil {
		adm2.Finish(nil)
	}
	if st := m.Stats(); st.ThreadsInFlight != 0 || st.Completed != 2 {
		t.Fatalf("drain: %+v", st)
	}
}

// TestExecuteRenegotiatesChains runs a real multi-chain execution through
// the manager end to end: the reservation is renegotiated once per chain,
// the trace surfaces in QueryStats, and the budget holds.
func TestExecuteRenegotiatesChains(t *testing.T) {
	plan, db := twoChainPlan(t)
	m := NewManager(Config{Budget: 6})
	res, qs, err := m.Execute(context.Background(), plan, db, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs["Res"] == nil {
		t.Fatal("no result")
	}
	if len(qs.ChainThreads) != 2 {
		t.Fatalf("ChainThreads = %v, want one grant per chain", qs.ChainThreads)
	}
	for ci, g := range qs.ChainThreads {
		if g < 1 || g > 6 {
			t.Errorf("chain %d granted %d threads outside [1, budget]", ci, g)
		}
	}
	st := m.Stats()
	if st.Readmissions != 2 {
		t.Errorf("Readmissions = %d, want 2", st.Readmissions)
	}
	if st.PeakThreads > 6 {
		t.Errorf("peak %d exceeded budget", st.PeakThreads)
	}
	if st.ThreadsInFlight != 0 || st.Active != 0 {
		t.Errorf("not drained: %+v", st)
	}
}

// TestFinishClassification: the outcome ledgers classify from the error
// itself, not from the admission context — an operator failure stays Failed
// even when the caller cancelled on error.
func TestFinishClassification(t *testing.T) {
	plan, db := joinPlan(t)
	cases := []struct {
		name      string
		err       error
		cancelCtx bool
		want      string
	}{
		{"nil is completed", nil, false, "completed"},
		{"canceled is cancelled", context.Canceled, true, "cancelled"},
		{"wrapped deadline is cancelled", fmt.Errorf("chain 2: %w", context.DeadlineExceeded), true, "cancelled"},
		{"operator error is failed", errors.New("join: hash table overflow"), false, "failed"},
		{"operator error with dead ctx is still failed", errors.New("join: hash table overflow"), true, "failed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewManager(Config{Budget: 4})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opts := core.Options{Threads: 2}
			adm, err := m.Admit(ctx, plan, db, &opts, PriorityInteractive)
			if err != nil {
				t.Fatal(err)
			}
			if tc.cancelCtx {
				cancel() // caller cancels (e.g. on error) before Finish
			}
			adm.Finish(tc.err)
			st := m.Stats()
			got := map[string]int64{"completed": st.Completed, "cancelled": st.Cancelled, "failed": st.Failed}
			for _, k := range []string{"completed", "cancelled", "failed"} {
				want := int64(0)
				if k == tc.want {
					want = 1
				}
				if got[k] != want {
					t.Errorf("%s = %d, want %d (stats %+v)", k, got[k], want, st)
				}
			}
			if st.ThreadsInFlight != 0 {
				t.Errorf("threads not returned: %+v", st)
			}
		})
	}
}

// TestReserveCountsInQueue: Reserve waiters are visible queue pressure and
// subject to the MaxQueued bound.
func TestReserveCountsInQueue(t *testing.T) {
	m := NewManager(Config{Budget: 2, MaxQueued: 2})
	release, err := m.Reserve(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	waiting := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			r, err := m.Reserve(ctx, 1)
			if err == nil {
				r()
			}
			waiting <- err
		}()
	}
	for m.Stats().Queued < 2 {
		time.Sleep(time.Millisecond)
	}
	if st := m.Stats(); st.QueuedInteractive != 2 {
		t.Fatalf("QueuedInteractive = %d, want the 2 Reserve waiters", st.QueuedInteractive)
	}
	// The line is at MaxQueued: the next Reserve is shed, not queued.
	if _, err := m.Reserve(context.Background(), 1); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if st := m.Stats(); st.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", st.Rejected)
	}
	release()
	for i := 0; i < 2; i++ {
		if err := <-waiting; err != nil {
			t.Fatal(err)
		}
	}
	if st := m.Stats(); st.Queued != 0 || st.ThreadsInFlight != 0 {
		t.Errorf("not drained: %+v", st)
	}
}

// TestReadmitBlendsEWMA: the boundary throttle blends the instantaneous
// sample with the completion EWMA exactly like admission does — a chain
// boundary reached in a momentary trough between bursts is still throttled.
func TestReadmitBlendsEWMA(t *testing.T) {
	plan, db := twoChainPlan(t)
	m := NewManager(Config{Budget: 8})

	// Seed the EWMA at 0.5: a query completes while 4 threads are held.
	release, err := m.Reserve(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Threads: 1}
	adm, err := m.Admit(context.Background(), plan, db, &opts, PriorityInteractive)
	if err != nil {
		t.Fatal(err)
	}
	adm.Finish(nil)
	release()
	if got := m.Stats().SmoothedUtilization; got != 0.5 {
		t.Fatalf("EWMA = %v, want 0.5", got)
	}

	// An idle instant at the boundary: others = 0, but the blend keeps the
	// throttle at 0.25, so a want of 8 is granted 6, not 8.
	opts2 := core.Options{Threads: 8}
	adm2, err := m.Admit(context.Background(), plan, db, &opts2, PriorityInteractive)
	if err != nil {
		t.Fatal(err)
	}
	if grant := m.Readmit(adm2, -1, 8, 1); grant != 6 {
		t.Fatalf("trough grant = %d, want 6 (throttled by the 0.25 blend)", grant)
	}
	if st := m.Stats(); st.ThreadsReturnedEarly != 2 {
		t.Fatalf("ThreadsReturnedEarly = %d, want 2", st.ThreadsReturnedEarly)
	}
	adm2.Finish(nil)
}

// TestReadmitFloorsAtChainNodeCount: the throttle never grants below the
// next chain's node count — every node pool runs at least one thread, so a
// smaller grant would overstate the threads returned to the budget.
func TestReadmitFloorsAtChainNodeCount(t *testing.T) {
	plan, db := twoChainPlan(t)
	m := NewManager(Config{Budget: 8})
	opts := core.Options{Threads: 6}
	adm, err := m.Admit(context.Background(), plan, db, &opts, PriorityInteractive)
	if err != nil {
		t.Fatal(err)
	}
	// The chain wants 1 thread but has 3 nodes: the grant floors at 3.
	if grant := m.Readmit(adm, -1, 1, 3); grant != 3 {
		t.Fatalf("grant = %d, want the 3-node floor", grant)
	}
	if st := m.Stats(); st.ThreadsReturnedEarly != 3 {
		t.Fatalf("ThreadsReturnedEarly = %d, want 3 (6 held - 3 floor)", st.ThreadsReturnedEarly)
	}
	adm.Finish(nil)
}
