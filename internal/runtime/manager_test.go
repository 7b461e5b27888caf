package runtime

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbs3/internal/core"
	"dbs3/internal/lera"
	"dbs3/internal/workload"
)

// execute admits one query as PriorityInteractive and runs it to completion
// under m's budget, the way Stmt.QueryContext does minus the streaming.
func execute(ctx context.Context, m *Manager, plan *lera.Plan, db core.DB, opts core.Options) (*core.Result, QueryStats, error) {
	r, err := Begin(ctx, m, plan, db, opts, PriorityInteractive)
	if err != nil {
		return nil, QueryStats{}, err
	}
	return r.Execute(ctx)
}

func joinPlan(t *testing.T) (*lera.Plan, core.DB) {
	t.Helper()
	db, err := workload.NewJoinDB(2_000, 200, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.IdealJoinPlan(lera.HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	return plan, db.Relations()
}

func TestManagerBudgetNeverExceeded(t *testing.T) {
	plan, db := joinPlan(t)
	m := NewManager(Config{Budget: 6})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				_, qs, err := execute(context.Background(), m, plan, db, core.Options{})
				if err != nil {
					t.Error(err)
					return
				}
				if qs.Threads < 1 || qs.Threads > 6 {
					t.Errorf("query got %d threads outside [1, budget]", qs.Threads)
				}
			}
		}()
	}
	wg.Wait()
	st := m.Stats()
	if st.PeakThreads > 6 {
		t.Errorf("peak threads %d exceeded budget 6", st.PeakThreads)
	}
	if st.ThreadsInFlight != 0 || st.Active != 0 || st.Queued != 0 {
		t.Errorf("manager did not drain: %+v", st)
	}
	if st.Admitted != 80 || st.Completed != 80 {
		t.Errorf("admitted/completed = %d/%d, want 80/80", st.Admitted, st.Completed)
	}
}

func TestManagerMeasuredUtilization(t *testing.T) {
	plan, db := joinPlan(t)
	m := NewManager(Config{Budget: 8})

	// Idle: no concurrent load measured.
	_, qs, err := execute(context.Background(), m, plan, db, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if qs.Utilization != 0 {
		t.Errorf("idle utilization = %v, want 0", qs.Utilization)
	}
	idleThreads := qs.Threads

	// Under load: 6 of 8 threads held elsewhere.
	release, err := m.Reserve(context.Background(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.ThreadsInFlight != 6 {
		t.Errorf("ThreadsInFlight = %d, want the 6 reserved", st.ThreadsInFlight)
	}
	_, qs, err = execute(context.Background(), m, plan, db, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	release()
	if qs.Utilization != 0.75 {
		t.Errorf("loaded utilization = %v, want 0.75", qs.Utilization)
	}
	if qs.Available != 2 {
		t.Errorf("available = %d, want 2", qs.Available)
	}
	if qs.Threads >= idleThreads && idleThreads > 1 {
		t.Errorf("threads under load = %d, not reduced from idle %d", qs.Threads, idleThreads)
	}
	if qs.Threads > 2 {
		t.Errorf("threads = %d exceed the 2 available", qs.Threads)
	}
}

func TestManagerExplicitThreadsWaitForBudget(t *testing.T) {
	plan, db := joinPlan(t)
	m := NewManager(Config{Budget: 4})
	release, err := m.Reserve(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	var admitted atomic.Bool
	done := make(chan error, 1)
	go func() {
		_, qs, err := execute(context.Background(), m, plan, db, core.Options{Threads: 3})
		admitted.Store(true)
		if err == nil && qs.Threads != 3 {
			err = errors.New("explicit thread request not honored")
		}
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if admitted.Load() {
		t.Fatal("query admitted while the full budget was reserved")
	}
	if st := m.Stats(); st.Queued != 1 {
		t.Fatalf("Queued = %d, want 1", st.Queued)
	}
	release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query not admitted after threads freed")
	}
}

func TestManagerQueueFull(t *testing.T) {
	plan, db := joinPlan(t)
	m := NewManager(Config{Budget: 2, MaxQueued: 1})
	release, err := m.Reserve(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	// One query fills the queue...
	firstQueued := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		close(firstQueued)
		execute(ctx, m, plan, db, core.Options{})
	}()
	<-firstQueued
	for m.Stats().Queued == 0 {
		time.Sleep(time.Millisecond)
	}
	// ...the next is shed.
	if _, _, err := execute(context.Background(), m, plan, db, core.Options{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if st := m.Stats(); st.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", st.Rejected)
	}
}

func TestManagerCancelWhileQueued(t *testing.T) {
	plan, db := joinPlan(t)
	m := NewManager(Config{Budget: 2})
	release, err := m.Reserve(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := execute(ctx, m, plan, db, core.Options{})
		done <- err
	}()
	for m.Stats().Queued == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled queued query did not return")
	}
	if st := m.Stats(); st.Cancelled != 1 || st.Queued != 0 {
		t.Errorf("stats after cancel: %+v", st)
	}
}

// TestManagerFIFOFairness: a large explicit request queued first is served
// before a small query queued behind it — small queries cannot starve it.
func TestManagerFIFOFairness(t *testing.T) {
	plan, db := joinPlan(t)
	m := NewManager(Config{Budget: 4})
	release, err := m.Reserve(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}

	order := make(chan string, 2)
	go func() {
		if _, _, err := execute(context.Background(), m, plan, db, core.Options{Threads: 4}); err != nil {
			t.Error(err)
		}
		order <- "big"
	}()
	for m.Stats().Queued < 1 {
		time.Sleep(time.Millisecond)
	}
	go func() {
		if _, _, err := execute(context.Background(), m, plan, db, core.Options{}); err != nil {
			t.Error(err)
		}
		order <- "small"
	}()
	for m.Stats().Queued < 2 {
		time.Sleep(time.Millisecond)
	}

	release()
	if first := <-order; first != "big" {
		t.Errorf("first served = %q, want the big query queued first", first)
	}
	<-order
}

// TestManagerAbandonedTicketSkipped: cancelling a queued query must not
// stall the line behind its ticket.
func TestManagerAbandonedTicketSkipped(t *testing.T) {
	plan, db := joinPlan(t)
	m := NewManager(Config{Budget: 2})
	release, err := m.Reserve(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	waiting := make(chan error, 1)
	go func() {
		_, _, err := execute(ctx, m, plan, db, core.Options{})
		waiting <- err
	}()
	for m.Stats().Queued < 1 {
		time.Sleep(time.Millisecond)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := execute(context.Background(), m, plan, db, core.Options{})
		done <- err
	}()
	for m.Stats().Queued < 2 {
		time.Sleep(time.Millisecond)
	}

	cancel() // abandon the head-of-line ticket
	if err := <-waiting; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v", err)
	}
	release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("line stalled behind an abandoned ticket")
	}
}

// TestManagerFailedQueryCounted: a plan that cannot be costed lands in
// Failed without ever taking a ticket — not Admitted, not Queued, and not
// Rejected even when it arrives at a full queue (the planning error wins
// over ErrQueueFull).
func TestManagerFailedQueryCounted(t *testing.T) {
	plan, db := joinPlan(t)
	m := NewManager(Config{Budget: 4, MaxQueued: 1})
	if _, _, err := execute(context.Background(), m, plan, core.DB{}, core.Options{}); err == nil {
		t.Fatal("empty database accepted")
	}
	st := m.Stats()
	if st.Failed != 1 || st.Completed != 0 || st.Admitted != 0 {
		t.Errorf("Failed/Completed/Admitted = %d/%d/%d, want 1/0/0", st.Failed, st.Completed, st.Admitted)
	}

	// Fill the queue: the budget is held and one query waits.
	release, err := m.Reserve(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() {
		_, _, err := execute(ctx, m, plan, db, core.Options{})
		waiter <- err
	}()
	for m.Stats().Queued == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, _, err := execute(context.Background(), m, plan, db, core.Options{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("good plan at a full queue: err = %v, want ErrQueueFull", err)
	}
	if _, _, err := execute(context.Background(), m, plan, core.DB{}, core.Options{}); err == nil || errors.Is(err, ErrQueueFull) {
		t.Fatalf("bad plan at a full queue: err = %v, want the planning error", err)
	}
	if st := m.Stats(); st.Failed != 2 || st.Rejected != 1 || st.Queued != 1 || st.Admitted != 0 {
		t.Errorf("Failed/Rejected/Queued/Admitted = %d/%d/%d/%d, want 2/1/1/0", st.Failed, st.Rejected, st.Queued, st.Admitted)
	}
	cancel()
	if err := <-waiter; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v", err)
	}
	release()
	if _, _, err := execute(context.Background(), m, plan, db, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Completed != 1 {
		t.Errorf("Completed = %d, want 1", st.Completed)
	}
}

func TestManagerClose(t *testing.T) {
	plan, db := joinPlan(t)
	m := NewManager(Config{Budget: 2})
	m.Close()
	if _, _, err := execute(context.Background(), m, plan, db, core.Options{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if _, err := m.Reserve(context.Background(), 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Reserve err = %v, want ErrClosed", err)
	}
}
