package runtime

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"dbs3/internal/core"
)

// TestManagerInteractiveBeforeBatch: with both classes waiting, the
// interactive query is served first even though the batch query queued
// earlier.
func TestManagerInteractiveBeforeBatch(t *testing.T) {
	plan, db := joinPlan(t)
	m := NewManager(Config{Budget: 4})
	release, err := m.Reserve(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}

	order := make(chan string, 2)
	exec := func(pri Priority) {
		opts := core.Options{Threads: 4} // serialize: each run needs the full budget
		adm, err := m.Admit(context.Background(), plan, db, &opts, pri)
		if err != nil {
			t.Error(err)
			return
		}
		order <- adm.Decision.Priority
		res, err := core.ExecuteAllocated(context.Background(), plan, db, opts, adm.Alloc())
		adm.Finish(err)
		if err != nil || res == nil {
			t.Error(err)
		}
	}
	go exec(PriorityBatch)
	for m.Stats().QueuedBatch < 1 {
		time.Sleep(time.Millisecond)
	}
	go exec(PriorityInteractive)
	for m.Stats().QueuedInteractive < 1 {
		time.Sleep(time.Millisecond)
	}

	release()
	if first := <-order; first != PriorityInteractive.String() {
		t.Errorf("first served = %v, want interactive", first)
	}
	if second := <-order; second != PriorityBatch.String() {
		t.Errorf("second served = %v, want batch", second)
	}
}

// TestManagerBatchAging: after batchAging consecutive interactive
// admissions bypass a waiting batch query, the batch head is served next
// even though interactive queries are still queued — batch is never starved.
func TestManagerBatchAging(t *testing.T) {
	plan, db := joinPlan(t)
	m := NewManager(Config{Budget: 4})
	release, err := m.Reserve(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}

	order := make(chan string, batchAging+2)
	exec := func(name string, pri Priority) {
		opts := core.Options{Threads: 4}
		adm, err := m.Admit(context.Background(), plan, db, &opts, pri)
		if err != nil {
			t.Error(err)
			return
		}
		order <- name
		res, err := core.ExecuteAllocated(context.Background(), plan, db, opts, adm.Alloc())
		adm.Finish(err)
		if err != nil || res == nil {
			t.Error(err)
		}
	}
	// Queue: batch B, then batchAging+1 interactive queries in order. Service
	// order must be batchAging interactive ones (the streak climbs to the
	// bound), then B (aged), then the last interactive.
	go exec("B", PriorityBatch)
	for m.Stats().QueuedBatch < 1 {
		time.Sleep(time.Millisecond)
	}
	var want []string
	for i := 1; i <= batchAging+1; i++ {
		if i == batchAging+1 {
			want = append(want, "B")
		}
		name := fmt.Sprint("I", i)
		want = append(want, name)
		go exec(name, PriorityInteractive)
		for m.Stats().QueuedInteractive < i {
			time.Sleep(time.Millisecond)
		}
	}

	release()
	for i := range want {
		if got := <-order; got != want[i] {
			t.Fatalf("service %d = %s, want order %v", i, got, want)
		}
	}
}

// TestManagerAgingFitCheck: an aged batch head whose thread request does
// not fit the current headroom must not stall interactive queries that do
// fit — soft promotion checks fit first. The hard bound (2× aging) still
// guarantees the batch query eventually blocks the line and runs.
func TestManagerAgingFitCheck(t *testing.T) {
	plan, db := joinPlan(t)
	m := NewManager(Config{Budget: 4})
	// Pin half the budget: the full-budget batch query cannot fit until
	// this releases, but 1-thread interactive queries can.
	release, err := m.Reserve(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan string, 2*batchAging)
	exec := func(name string, pri Priority, threads int) {
		opts := core.Options{Threads: threads}
		adm, err := m.Admit(context.Background(), plan, db, &opts, pri)
		if err != nil {
			t.Error(err)
			return
		}
		res, err := core.ExecuteAllocated(context.Background(), plan, db, opts, adm.Alloc())
		adm.Finish(err)
		if err != nil || res == nil {
			t.Error(err)
		}
		done <- name
	}

	go exec("B", PriorityBatch, 4)
	for m.Stats().QueuedBatch < 1 {
		time.Sleep(time.Millisecond)
	}
	// Interactive queries beyond the aging streak (but short of the hard
	// bound at twice it) still get served while the batch head cannot fit
	// (2 of 4 threads pinned).
	const beyond = batchAging + 2
	for i := 0; i < beyond; i++ {
		go exec("I", PriorityInteractive, 1)
	}
	for i := 0; i < beyond; i++ {
		select {
		case name := <-done:
			if name != "I" {
				t.Fatalf("served %q while batch head could not fit", name)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("interactive query stalled behind an unfittable batch head")
		}
	}

	// Headroom restored: the aged batch query runs.
	release()
	select {
	case name := <-done:
		if name != "B" {
			t.Fatalf("served %q, want the aged batch query", name)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("batch query starved after headroom freed")
	}
}

// TestManagerBatchQueueReserve: the queue bound keeps slots in reserve for
// interactive arrivals — a batch flood is shed with ErrQueueFull while an
// interactive query can still join the line.
func TestManagerBatchQueueReserve(t *testing.T) {
	plan, db := joinPlan(t)
	m := NewManager(Config{Budget: 4, MaxQueued: 4})
	release, err := m.Reserve(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	// Batch limit is MaxQueued - MaxQueued/4 = 3: fill it.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 3; i++ {
		go func() {
			opts := core.Options{Threads: 1}
			if _, err := m.Admit(ctx, plan, db, &opts, PriorityBatch); err != nil && !errors.Is(err, context.Canceled) {
				t.Error(err)
			}
		}()
	}
	for m.Stats().QueuedBatch < 3 {
		time.Sleep(time.Millisecond)
	}

	// The 4th batch query is shed; an interactive query still queues.
	opts := core.Options{Threads: 1}
	if _, err := m.Admit(ctx, plan, db, &opts, PriorityBatch); err != ErrQueueFull {
		t.Errorf("4th batch admission = %v, want ErrQueueFull", err)
	}
	go func() {
		opts := core.Options{Threads: 1}
		if _, err := m.Admit(ctx, plan, db, &opts, PriorityInteractive); err != nil && !errors.Is(err, context.Canceled) {
			t.Error(err)
		}
	}()
	for m.Stats().QueuedInteractive < 1 {
		time.Sleep(time.Millisecond)
	}
	if st := m.Stats(); st.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", st.Rejected)
	}
}

// TestManagerSmoothedUtilization: a completion feeds the EWMA, and a later
// query admitted into a momentarily idle budget still sees a smoothed
// utilization above its instantaneous sample.
func TestManagerSmoothedUtilization(t *testing.T) {
	plan, db := joinPlan(t)
	m := NewManager(Config{Budget: 8})

	// 4 of 8 threads held elsewhere while a query runs to completion: its
	// Finish samples the leftover load 0.5 into the EWMA.
	release, err := m.Reserve(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := execute(context.Background(), m, plan, db, core.Options{Threads: 1}); err != nil {
		t.Fatal(err)
	}
	release()
	if got := m.Stats().SmoothedUtilization; got != 0.5 {
		t.Fatalf("Stats.SmoothedUtilization = %v, want 0.5", got)
	}

	// The budget is idle now, but the burst just ended: the blend keeps the
	// feedback above the instantaneous zero.
	_, qs, err := execute(context.Background(), m, plan, db, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if qs.Measured != 0 {
		t.Errorf("Measured = %v, want 0 (idle instant)", qs.Measured)
	}
	if qs.Smoothed != 0.25 {
		t.Errorf("Smoothed = %v, want 0.25 (blend of 0 instant and 0.5 EWMA)", qs.Smoothed)
	}
	if qs.Utilization != 0.25 {
		t.Errorf("Utilization = %v, want the smoothed 0.25", qs.Utilization)
	}

	// A genuinely loaded instant is never watered down by a calm history.
	release2, err := m.Reserve(context.Background(), 6)
	if err != nil {
		t.Fatal(err)
	}
	_, qs, err = execute(context.Background(), m, plan, db, core.Options{})
	release2()
	if err != nil {
		t.Fatal(err)
	}
	if qs.Measured != 0.75 || qs.Utilization != 0.75 {
		t.Errorf("Measured/Utilization = %v/%v, want 0.75/0.75", qs.Measured, qs.Utilization)
	}
}

// TestAdmitFinishLifecycle: the split admission API reserves threads until
// Finish, classifies outcomes from the error, and Finish is idempotent.
func TestAdmitFinishLifecycle(t *testing.T) {
	plan, db := joinPlan(t)
	m := NewManager(Config{Budget: 4})

	opts := core.Options{Threads: 2}
	adm, err := m.Admit(context.Background(), plan, db, &opts, PriorityInteractive)
	if err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.ThreadsInFlight != 2 || st.Active != 1 {
		t.Fatalf("after Admit: %+v", st)
	}
	if adm.Alloc().Total != 2 {
		t.Fatalf("Alloc.Total = %d, want 2", adm.Alloc().Total)
	}
	res, err := core.ExecuteAllocated(context.Background(), plan, db, opts, adm.Alloc())
	if err != nil || res == nil {
		t.Fatal(err)
	}
	adm.Finish(nil)
	adm.Finish(nil) // idempotent
	st := m.Stats()
	if st.ThreadsInFlight != 0 || st.Active != 0 || st.Completed != 1 {
		t.Fatalf("after Finish x2: %+v", st)
	}

	// A cancelled execution lands in Cancelled, not Failed.
	ctx, cancel := context.WithCancel(context.Background())
	opts2 := core.Options{Threads: 2}
	adm2, err := m.Admit(ctx, plan, db, &opts2, PriorityBatch)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	adm2.Finish(context.Canceled)
	if st := m.Stats(); st.Cancelled != 1 || st.ThreadsInFlight != 0 {
		t.Fatalf("after cancelled Finish: %+v", st)
	}

	// NotePlanCache counters surface in Stats.
	m.NotePlanCache(false)
	m.NotePlanCache(true)
	m.NotePlanCache(true)
	if st := m.Stats(); st.PlanCacheHits != 2 || st.PlanCacheMisses != 1 {
		t.Fatalf("plan cache counters: %+v", st)
	}
}
