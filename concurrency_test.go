package dbs3

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRelationsSorted: the catalog listing is deterministic.
func TestRelationsSorted(t *testing.T) {
	db := New()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if err := db.CreateWisconsin(name, 100, 4, "unique2", 1); err != nil {
			t.Fatal(err)
		}
	}
	got := db.Relations()
	want := []string{"alpha", "mid", "zeta"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Relations() = %v, want %v", got, want)
	}
}

// TestQueryErrorPaths covers the facade's option validation and unknown
// relations, with both nil and non-nil Options.
func TestQueryErrorPaths(t *testing.T) {
	db := New()
	if err := db.CreateWisconsin("wisc", 200, 4, "unique2", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryContext(context.Background(), "SELECT * FROM wisc", nil); err != nil {
		t.Errorf("nil Options rejected: %v", err)
	}
	if _, err := db.QueryContext(context.Background(), "SELECT * FROM wisc", &Options{}); err != nil {
		t.Errorf("zero Options rejected: %v", err)
	}
	if _, err := db.QueryContext(context.Background(), "SELECT * FROM wisc", &Options{Strategy: "lifo"}); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := db.QueryContext(context.Background(), "SELECT * FROM wisc", &Options{JoinAlgo: "sort-merge"}); err == nil {
		t.Error("unknown join algorithm accepted")
	}
	if _, err := db.QueryContext(context.Background(), "SELECT * FROM nope", nil); err == nil {
		t.Error("unknown relation accepted")
	}
	if _, err := db.ExplainContext(context.Background(), "SELECT * FROM wisc", nil); err != nil {
		t.Errorf("Explain with nil Options rejected: %v", err)
	}
	if _, err := db.ExplainContext(context.Background(), "SELECT * FROM wisc", &Options{JoinAlgo: "sort-merge"}); err == nil {
		t.Error("Explain accepted unknown join algorithm")
	}
	if _, err := db.ExplainContext(context.Background(), "SELECT * FROM nope", nil); err == nil {
		t.Error("Explain accepted unknown relation")
	}
}

// TestQueryContextCancel cancels a heavy query mid-execution; it must return
// context.Canceled promptly instead of running to completion.
func TestQueryContextCancel(t *testing.T) {
	db := New()
	if err := db.CreateWisconsin("bigA", 40_000, 16, "unique2", 7); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateWisconsin("bigB", 40_000, 16, "unique2", 8); err != nil {
		t.Fatal(err)
	}
	heavy := "SELECT * FROM bigA JOIN bigB ON bigA.unique2 = bigB.unique2"
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := func() error {
		rows, err := db.QueryContext(ctx, heavy, &Options{JoinAlgo: "nested-loop", Threads: 2})
		if err != nil {
			return err
		}
		_, err = rows.All()
		return err
	}()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled query took %v to return", elapsed)
	}

	// Pre-cancelled context: no work at all.
	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := db.QueryContext(done, "SELECT * FROM bigA", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v, want context.Canceled", err)
	}
}

// TestManagerFeedbackLoop is the acceptance test for the measured-utilization
// loop: with concurrent load on the QueryManager, every admitted
// auto-threaded query chooses fewer threads than the same query run alone,
// and the total allocated threads never exceed the budget.
func TestManagerFeedbackLoop(t *testing.T) {
	db := New()
	if err := db.CreateWisconsin("wisc", 20_000, 16, "unique2", 42); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateWisconsin("bigA", 60_000, 16, "unique2", 7); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateWisconsin("bigB", 60_000, 16, "unique2", 8); err != nil {
		t.Fatal(err)
	}
	const budget = 8
	m := db.Manager(ManagerConfig{Budget: budget})
	probe := "SELECT unique2 FROM wisc WHERE unique1 < 10000"

	// Baseline: the probe alone on an idle manager.
	alone, err := db.QueryAllContext(context.Background(), probe, nil)
	if err != nil {
		t.Fatal(err)
	}
	if alone.Threads < 2 {
		t.Fatalf("baseline query uses %d threads; too small to observe reduction", alone.Threads)
	}
	if a := alone.Admission; a.Measured != 0 || a.Utilization != 0 {
		t.Fatalf("idle utilization = %v (measured %v), want 0", a.Utilization, a.Measured)
	}

	// Background load: a heavy nested-loop join holding 2 of the 8 threads
	// until cancelled.
	bgCtx, bgCancel := context.WithCancel(context.Background())
	bgDone := make(chan struct{})
	go func() {
		defer close(bgDone)
		heavy := "SELECT * FROM bigA JOIN bigB ON bigA.unique2 = bigB.unique2"
		rows, err := db.QueryContext(bgCtx, heavy, &Options{JoinAlgo: "nested-loop", Threads: 2})
		if err == nil {
			rows.All() // drains until the cancellation aborts the query
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for m.Stats().ThreadsInFlight < 2 {
		if time.Now().After(deadline) {
			t.Fatal("background query never started")
		}
		time.Sleep(time.Millisecond)
	}

	// K concurrent probes: each admitted while the background query holds
	// threads, so each measures utilization > 0 and shrinks.
	const K = 4
	var wg sync.WaitGroup
	results := make([]*Result, K)
	errs := make([]error, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = db.QueryAllContext(context.Background(), probe, nil)
		}(i)
	}
	wg.Wait()
	bgCancel()
	<-bgDone

	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("probe %d: %v", i, errs[i])
		}
		r := results[i]
		if a := r.Admission; a.Measured <= 0 || a.Utilization <= 0 {
			t.Errorf("probe %d measured utilization %v (effective %v), want > 0", i, a.Measured, a.Utilization)
		}
		if r.Threads >= alone.Threads {
			t.Errorf("probe %d used %d threads under load, not reduced from %d alone", i, r.Threads, alone.Threads)
		}
		if r.Threads < 1 {
			t.Errorf("probe %d used %d threads", i, r.Threads)
		}
		if rowSet(r.Data) != rowSet(alone.Data) {
			t.Errorf("probe %d returned different rows under load", i)
		}
	}
	st := m.Stats()
	if st.PeakThreads > budget {
		t.Errorf("peak allocated threads %d exceeded budget %d", st.PeakThreads, budget)
	}
	if st.ThreadsInFlight != 0 {
		t.Errorf("threads still in flight after drain: %d", st.ThreadsInFlight)
	}
}

// rowSet renders rows order-independently: parallel execution emits result
// tuples in a nondeterministic order.
func rowSet(data [][]any) string {
	lines := make([]string, len(data))
	for i, row := range data {
		lines[i] = fmt.Sprint(row)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestConcurrentQueryCreateStress races queries against relation creation;
// run under -race this proves the Database locking (and the engine's
// instance-local execution state).
func TestConcurrentQueryCreateStress(t *testing.T) {
	db := New()
	if err := db.CreateWisconsin("wisc", 5_000, 8, "unique2", 42); err != nil {
		t.Fatal(err)
	}
	db.Manager(ManagerConfig{Budget: 8})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				rows, err := db.QueryAllContext(context.Background(), "SELECT two, COUNT(*) FROM wisc WHERE two = 0 GROUP BY two", nil)
				if err != nil {
					t.Error(err)
					return
				}
				if len(rows.Data) != 1 || rows.Data[0][1].(int64) != 2500 {
					t.Errorf("worker %d: wrong result %v", w, rows.Data)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				name := fmt.Sprintf("aux_%d_%d", w, i)
				if err := db.CreateWisconsin(name, 500, 4, "unique2", int64(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := len(db.Relations()); got != 13 {
		t.Errorf("relation count = %d, want 13", got)
	}
}
