package dbs3

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"dbs3/internal/relation"
)

// TestPreparedStatementReuse: Prepare compiles once; repeated executions of
// the same Stmt reuse the bound plan, and the cache-hit counters make the
// skipped recompilation observable for ad-hoc queries too.
func TestPreparedStatementReuse(t *testing.T) {
	db := New()
	if err := db.CreateWisconsin("wisc", 2000, 8, "unique2", 42); err != nil {
		t.Fatal(err)
	}
	m := db.Manager(ManagerConfig{Budget: 4})

	stmt, err := db.Prepare("SELECT unique2 FROM wisc WHERE unique1 < 100", nil)
	if err != nil {
		t.Fatal(err)
	}
	if cols := stmt.Columns(); len(cols) != 1 || cols[0] != "unique2" {
		t.Fatalf("Columns = %v", cols)
	}
	hits0, misses0 := db.PlanCacheStats()
	if hits0 != 0 || misses0 != 1 {
		t.Fatalf("after Prepare: hits/misses = %d/%d, want 0/1", hits0, misses0)
	}
	for i := 0; i < 3; i++ {
		rows, err := stmt.QueryContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		res, err := rows.All()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Data) != 100 {
			t.Fatalf("execution %d: %d rows, want 100", i, len(res.Data))
		}
	}
	// Stmt executions never touch the compiler or the cache.
	if hits, misses := db.PlanCacheStats(); hits != hits0 || misses != misses0 {
		t.Errorf("Stmt executions changed cache counters: %d/%d", hits, misses)
	}

	// An ad-hoc query for the same SQL + join algo hits the cached plan —
	// the repeated statement skips recompilation, observably.
	if _, err := db.QueryAllContext(context.Background(), "SELECT unique2 FROM wisc WHERE unique1 < 100", nil); err != nil {
		t.Fatal(err)
	}
	hits, misses := db.PlanCacheStats()
	if hits != 1 || misses != 1 {
		t.Errorf("after ad-hoc repeat: hits/misses = %d/%d, want 1/1", hits, misses)
	}
	if st := m.Stats(); st.PlanCacheHits != 1 || st.PlanCacheMisses != 1 {
		t.Errorf("manager mirror: hits/misses = %d/%d, want 1/1", st.PlanCacheHits, st.PlanCacheMisses)
	}

	// A different join algorithm compiles a different plan.
	if _, err := db.QueryAllContext(context.Background(), "SELECT unique2 FROM wisc WHERE unique1 < 100", &Options{JoinAlgo: "nested-loop"}); err != nil {
		t.Fatal(err)
	}
	if _, misses := db.PlanCacheStats(); misses != 2 {
		t.Errorf("distinct join algo should miss: misses = %d, want 2", misses)
	}
}

// TestPlanCacheInvalidationAfterDDL: relation creation bumps the catalog
// epoch, so cached plans recompile instead of serving pre-DDL bindings.
func TestPlanCacheInvalidationAfterDDL(t *testing.T) {
	db := New()
	if err := db.CreateWisconsin("wisc", 1000, 4, "unique2", 1); err != nil {
		t.Fatal(err)
	}
	sql := "SELECT unique2 FROM wisc WHERE unique1 < 10"
	if _, err := db.QueryAllContext(context.Background(), sql, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryAllContext(context.Background(), sql, nil); err != nil {
		t.Fatal(err)
	}
	hits, misses := db.PlanCacheStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("warm cache: hits/misses = %d/%d, want 1/1", hits, misses)
	}

	// DDL invalidates: the same SQL recompiles once, then caches again.
	if err := db.CreateWisconsin("other", 500, 4, "unique2", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryAllContext(context.Background(), sql, nil); err != nil {
		t.Fatal(err)
	}
	if hits, misses = db.PlanCacheStats(); hits != 1 || misses != 2 {
		t.Fatalf("post-DDL: hits/misses = %d/%d, want 1/2", hits, misses)
	}
	if _, err := db.QueryAllContext(context.Background(), sql, nil); err != nil {
		t.Fatal(err)
	}
	if hits, _ = db.PlanCacheStats(); hits != 2 {
		t.Fatalf("recompiled plan should cache: hits = %d, want 2", hits)
	}
}

// TestStmtRevalidatesAfterDDL: a held Stmt notices a catalog-epoch change
// and re-resolves through the plan cache on its next execution, instead of
// executing a plan bound against the pre-DDL catalog forever. Executions
// with an unchanged catalog never touch the cache.
func TestStmtRevalidatesAfterDDL(t *testing.T) {
	db := New()
	if err := db.CreateWisconsin("wisc", 1000, 4, "unique2", 1); err != nil {
		t.Fatal(err)
	}
	stmt, err := db.Prepare("SELECT unique2 FROM wisc WHERE unique1 < 10", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateWisconsin("other", 500, 4, "unique2", 2); err != nil {
		t.Fatal(err)
	}
	_, misses0 := db.PlanCacheStats()
	rows, err := stmt.QueryContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res, err := rows.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Data) != 10 {
		t.Fatalf("post-DDL execution: %d rows, want 10", len(res.Data))
	}
	hits1, misses1 := db.PlanCacheStats()
	if misses1 != misses0+1 {
		t.Errorf("post-DDL execution should re-resolve with a miss: misses %d -> %d", misses0, misses1)
	}
	// Revalidated: further executions skip the cache again.
	rows2, err := stmt.QueryContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows2.All(); err != nil {
		t.Fatal(err)
	}
	if hits2, misses2 := db.PlanCacheStats(); hits2 != hits1 || misses2 != misses1 {
		t.Errorf("steady-state Stmt execution touched the cache: %d/%d -> %d/%d", hits1, misses1, hits2, misses2)
	}
}

// TestStmtConcurrentReuse: one Stmt shared by many goroutines produces
// correct results for every execution — the compiled plan is immutable and
// each execution carries its own allocation and cursor.
func TestStmtConcurrentReuse(t *testing.T) {
	db := New()
	if err := db.CreateWisconsin("wisc", 4000, 8, "unique2", 42); err != nil {
		t.Fatal(err)
	}
	db.Manager(ManagerConfig{Budget: 8})
	stmt, err := db.Prepare("SELECT two, COUNT(*) FROM wisc WHERE two = 0 GROUP BY two", nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				rows, err := stmt.QueryContext(context.Background())
				if err != nil {
					t.Error(err)
					return
				}
				var two, count int64
				n := 0
				for rows.Next() {
					if err := rows.Scan(&two, &count); err != nil {
						t.Error(err)
					}
					n++
				}
				if err := rows.Err(); err != nil {
					t.Error(err)
					return
				}
				if n != 1 || two != 0 || count != 2000 {
					t.Errorf("got %d rows, two=%d count=%d", n, two, count)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestStreamFirstRowBeforeMaterialization is the streaming acceptance test:
// a SELECT * over a 100k-tuple relation yields its first row while the
// query is still executing (bounded sink + queue backpressure make full
// materialization impossible before the consumer drains), and closing the
// cursor mid-stream hands the query's threads back to the manager budget.
func TestStreamFirstRowBeforeMaterialization(t *testing.T) {
	db := New()
	if err := db.CreateWisconsin("big", 100_000, 8, "unique2", 7); err != nil {
		t.Fatal(err)
	}
	m := db.Manager(ManagerConfig{Budget: 4})

	rows, err := db.QueryContext(context.Background(), "SELECT * FROM big", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	// The first row arrived, and the query is demonstrably still running:
	// its admission is active and its threads are still allocated. The
	// bounded sink (64 rows) plus per-queue caps cannot hold 100k tuples,
	// so this is only reachable before full materialization.
	st := m.Stats()
	if st.Active != 1 {
		t.Fatalf("query not active after first row: %+v", st)
	}
	if st.ThreadsInFlight < 1 {
		t.Fatalf("no threads in flight after first row: %+v", st)
	}

	// Read a few more rows mid-stream, then abandon the result.
	for i := 0; i < 10 && rows.Next(); i++ {
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	st = m.Stats()
	if st.ThreadsInFlight != 0 || st.Active != 0 {
		t.Fatalf("threads not released by mid-stream Close: %+v", st)
	}
	if st.Cancelled != 1 {
		t.Errorf("mid-stream Close should count as cancelled: %+v", st)
	}
	if err := rows.Err(); err != nil {
		t.Errorf("Err after explicit Close = %v, want nil", err)
	}

	// The budget is immediately reusable.
	res, err := db.QueryAllContext(context.Background(), "SELECT unique2 FROM big WHERE unique1 < 5", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Data) != 5 {
		t.Errorf("follow-up query got %d rows, want 5", len(res.Data))
	}
}

// TestCancelWhileBlockedInNext: a consumer blocked in Next (the query
// produces no rows for a while) is released by context cancellation with
// the context's error on the cursor.
func TestCancelWhileBlockedInNext(t *testing.T) {
	db := New()
	if err := db.CreateWisconsin("bigA", 40_000, 16, "unique2", 7); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateWisconsin("bigB", 40_000, 16, "unique2", 8); err != nil {
		t.Fatal(err)
	}
	db.Manager(ManagerConfig{Budget: 4})

	// The WHERE clause rejects every join tuple, so the store never emits a
	// row and the consumer parks in Next until cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := db.QueryContext(ctx,
		"SELECT * FROM bigA JOIN bigB ON bigA.unique2 = bigB.unique2 WHERE bigA.unique1 < 0",
		&Options{JoinAlgo: "nested-loop", Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if rows.Next() {
		t.Fatal("unexpected row from an all-rejecting predicate")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Next blocked %v after cancellation", elapsed)
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("Err = %v, want context.Canceled", err)
	}
}

// TestCloseSurfacesExternalAbort: Close only swallows the cancellation it
// caused itself. An external cancellation or deadline that already aborted
// the query stays visible on Close and Err — a timeout-truncated partial
// result must not look like a complete one.
func TestCloseSurfacesExternalAbort(t *testing.T) {
	db := New()
	if err := db.CreateWisconsin("bigA", 40_000, 16, "unique2", 7); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateWisconsin("bigB", 40_000, 16, "unique2", 8); err != nil {
		t.Fatal(err)
	}
	// The relations are generated before the clock starts, so the deadline
	// falls in the execution and not in the first read's load.
	db.settled()

	// All-rejecting predicate: the query grinds without emitting, so the
	// deadline fires mid-execution.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	rows, err := db.QueryContext(ctx,
		"SELECT * FROM bigA JOIN bigB ON bigA.unique2 = bigB.unique2 WHERE bigA.unique1 < 0",
		&Options{JoinAlgo: "nested-loop", Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the deadline to abort the execution, then Close — the
	// deferred-Close-after-timeout shape a real consumer hits.
	<-ctx.Done()
	time.Sleep(50 * time.Millisecond)
	if err := rows.Close(); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Close after external deadline = %v, want context.DeadlineExceeded", err)
	}
	if err := rows.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Err after external deadline = %v, want context.DeadlineExceeded", err)
	}
}

// TestRowSinkPush: a tuple pushed while the cursor channel has room arrives
// as its row of plain values; pushed into a full channel once the query's
// context is cancelled, it returns the context's error instead of blocking.
func TestRowSinkPush(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan []any, 1)
	sink := &rowSink{push: (&Rows{ch: ch, ctx: ctx}).push}
	tup := relation.Tuple{relation.Int(7), relation.Str("seven")}
	if err := sink.Push(tup); err != nil {
		t.Fatalf("push with room: %v", err)
	}
	if got, want := <-ch, relation.RowOf(tup); !reflect.DeepEqual(got, want) {
		t.Errorf("pushed %v, the cursor received %v", want, got)
	}
	if err := sink.Push(tup); err != nil {
		t.Fatalf("push filling the channel: %v", err)
	}
	cancel()
	if err := sink.Push(tup); err == nil || err != ctx.Err() {
		t.Errorf("push into a full channel after cancellation: %v, want %v", err, ctx.Err())
	}
	if len(ch) != 1 {
		t.Errorf("%d rows in the channel, want the one that fitted", len(ch))
	}
}

// TestRowsScanAndColumns: Scan destination checking, Columns before rows,
// and iteration-after-Close behavior.
func TestRowsScanAndColumns(t *testing.T) {
	db := New()
	if err := db.CreateWisconsin("wisc", 500, 4, "unique2", 3); err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryContext(context.Background(), "SELECT unique1, stringu1 FROM wisc WHERE unique1 < 3", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if cols := rows.Columns(); fmt.Sprint(cols) != "[unique1 stringu1]" {
		t.Fatalf("Columns = %v", cols)
	}
	if err := rows.Scan(new(int64)); err == nil {
		t.Error("Scan before Next accepted")
	}
	if !rows.Next() {
		t.Fatalf("no rows: %v", rows.Err())
	}
	var u int64
	var s string
	if err := rows.Scan(&u); err == nil {
		t.Error("wrong destination count accepted")
	}
	if err := rows.Scan(&s, &u); err == nil {
		t.Error("type mismatch accepted")
	}
	if err := rows.Scan(&u, &s); err != nil {
		t.Error(err)
	}
	var anyU, anyS any
	if err := rows.Scan(&anyU, &anyS); err != nil {
		t.Error(err)
	}
	if _, ok := anyU.(int64); !ok {
		t.Errorf("any destination got %T", anyU)
	}
	rows.Close()
	if rows.Next() {
		t.Error("Next after Close returned a row")
	}
	if err := rows.Scan(&u, &s); err == nil {
		t.Error("Scan after Close re-read a stale row")
	}

	// A drained cursor likewise rejects Scan instead of re-reading the
	// final row.
	drained, err := db.QueryContext(context.Background(), "SELECT unique1 FROM wisc WHERE unique1 < 3", nil)
	if err != nil {
		t.Fatal(err)
	}
	for drained.Next() {
	}
	if err := drained.Err(); err != nil {
		t.Fatal(err)
	}
	if err := drained.Scan(&u); err == nil {
		t.Error("Scan after exhaustion re-read a stale row")
	}

	// Unmanaged mid-stream Close also unwinds cleanly, and All on a cursor
	// closed before exhaustion is an error, not an empty result.
	rows2, err := db.QueryContext(context.Background(), "SELECT * FROM wisc", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rows2.Next() {
		t.Fatalf("no rows: %v", rows2.Err())
	}
	if err := rows2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rows2.All(); err == nil {
		t.Error("All on a mid-stream-closed cursor returned no error")
	}
}

// TestOptionsPriorityValidation: the facade rejects unknown priorities and
// executes both valid classes.
func TestOptionsPriorityValidation(t *testing.T) {
	db := New()
	if err := db.CreateWisconsin("wisc", 200, 4, "unique2", 1); err != nil {
		t.Fatal(err)
	}
	db.Manager(ManagerConfig{Budget: 4})
	if _, err := db.QueryContext(context.Background(), "SELECT * FROM wisc", &Options{Priority: "background"}); err == nil {
		t.Error("unknown priority accepted")
	}
	for _, pri := range []string{"", "interactive", "batch"} {
		res, err := db.QueryAllContext(context.Background(), "SELECT * FROM wisc", &Options{Priority: pri})
		if err != nil {
			t.Fatalf("priority %q: %v", pri, err)
		}
		if len(res.Data) != 200 {
			t.Fatalf("priority %q: %d rows", pri, len(res.Data))
		}
	}
}

// TestQueryAllMatchesCursor: the materialized shim and a manual cursor
// drain agree, and the cursor's Footer exists only after a complete drain.
func TestQueryAllMatchesCursor(t *testing.T) {
	const join = "SELECT * FROM A JOIN B ON A.k = B.k"
	ctx := context.Background()
	db := New()
	if err := db.CreateJoinPair("", 1000, 100, 10, 0.5); err != nil {
		t.Fatal(err)
	}
	res, err := db.QueryAllContext(ctx, join, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryContext(ctx, join, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		if rows.Footer() != nil {
			t.Fatalf("footer %+v mid-stream", rows.Footer())
		}
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(res.Data) || n != 1000 {
		t.Errorf("cursor drained %d rows, QueryAll %d, want 1000", n, len(res.Data))
	}
	f := rows.Footer()
	if f == nil || f.RowCount != int64(n) || res.RowCount != int64(n) {
		t.Fatalf("footer %+v and QueryAll's row count %d after %d rows", f, res.RowCount, n)
	}
	if len(f.Operators) == 0 || len(f.Operators) != len(res.Operators) {
		t.Fatalf("operators %+v, QueryAll's %+v", f.Operators, res.Operators)
	}
	for i, op := range f.Operators {
		if want := res.Operators[i]; op.Name != want.Name || op.Instances != want.Instances {
			t.Errorf("operator %d is %s×%d, QueryAll's %s×%d", i, op.Name, op.Instances, want.Name, want.Instances)
		}
	}

	// An early Close leaves no footer.
	rows, err = db.QueryContext(ctx, join, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	if err := rows.Close(); err != nil || rows.Footer() != nil {
		t.Errorf("Close = %v, footer %+v after an early Close", err, rows.Footer())
	}

	// Neither does an operator error: the join cannot create its spill file.
	rows, err = db.QueryContext(ctx, join, &Options{MemoryBudget: 1 << 10, SpillDir: filepath.Join(t.TempDir(), "missing")})
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if rows.Err() == nil || rows.Footer() != nil {
		t.Errorf("Err = %v, footer %+v after a failed spill", rows.Err(), rows.Footer())
	}
}
