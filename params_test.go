package dbs3

import (
	"context"
	"strings"
	"sync"
	"testing"
)

// TestStmtPlaceholderBinding: a prepared `?` statement executes with
// per-call arguments, and the whole family of predicates shares one cached
// plan — the compile-once/execute-many shape a serving workload needs.
func TestStmtPlaceholderBinding(t *testing.T) {
	db := New()
	if err := db.CreateWisconsin("wisc", 2000, 8, "unique2", 42); err != nil {
		t.Fatal(err)
	}
	stmt, err := db.Prepare("SELECT unique2 FROM wisc WHERE unique1 < ?", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := stmt.NumParams(); n != 1 {
		t.Fatalf("NumParams = %d, want 1", n)
	}
	for _, limit := range []int{10, 250, 0} {
		res, err := func() (*Result, error) {
			rows, err := stmt.QueryContext(context.Background(), limit)
			if err != nil {
				return nil, err
			}
			return rows.All()
		}()
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		if len(res.Data) != limit {
			t.Errorf("limit %d: %d rows", limit, len(res.Data))
		}
	}
	// Every execution above re-bound the same compiled plan: the one Prepare
	// miss is the only cache traffic.
	if hits, misses := db.PlanCacheStats(); hits != 0 || misses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 0/1", hits, misses)
	}
	// Ad-hoc placeholder queries share that plan too.
	res, err := db.QueryAllContext(context.Background(), "SELECT unique2 FROM wisc WHERE unique1 < ?", nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Data) != 5 {
		t.Errorf("ad-hoc placeholder query: %d rows, want 5", len(res.Data))
	}
	if hits, _ := db.PlanCacheStats(); hits != 1 {
		t.Errorf("ad-hoc placeholder query missed the cached plan template")
	}

	// Argument errors are caught before admission.
	if _, err := stmt.QueryContext(context.Background()); err == nil || !strings.Contains(err.Error(), "1 argument") {
		t.Errorf("missing argument: %v", err)
	}
	if _, err := stmt.QueryContext(context.Background(), 1, 2); err == nil || !strings.Contains(err.Error(), "1 argument") {
		t.Errorf("extra argument: %v", err)
	}
	if _, err := stmt.QueryContext(context.Background(), "ten"); err == nil || !strings.Contains(err.Error(), "wants INT") {
		t.Errorf("type mismatch: %v", err)
	}
	if _, err := stmt.QueryContext(context.Background(), 3.14); err == nil || !strings.Contains(err.Error(), "unsupported argument") {
		t.Errorf("unsupported kind: %v", err)
	}

	// String placeholders bind string arguments.
	srows, err := db.QueryContext(context.Background(), "SELECT unique1 FROM wisc WHERE stringu1 = ?", nil, "AAAAAAA")
	if err != nil {
		t.Fatal(err)
	}
	defer srows.Close()
	n := 0
	for srows.Next() {
		n++
	}
	if err := srows.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestStmtConcurrentDistinctBindings: one Stmt, many goroutines, each with
// its own argument — the shared compiled plan must never leak one
// execution's binding into another's. Each worker's row count proves its own
// predicate ran.
func TestStmtConcurrentDistinctBindings(t *testing.T) {
	db := New()
	if err := db.CreateWisconsin("wisc", 4000, 8, "unique2", 7); err != nil {
		t.Fatal(err)
	}
	db.Manager(ManagerConfig{Budget: 8})
	stmt, err := db.Prepare("SELECT unique2 FROM wisc WHERE unique1 < ?", nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 1; w <= 8; w++ {
		wg.Add(1)
		go func(limit int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				rows, err := stmt.QueryContext(context.Background(), limit)
				if err != nil {
					t.Error(err)
					return
				}
				n := 0
				for rows.Next() {
					n++
				}
				if err := rows.Err(); err != nil {
					t.Error(err)
					return
				}
				if n != limit {
					t.Errorf("binding %d returned %d rows", limit, n)
					return
				}
			}
		}(w * 100)
	}
	wg.Wait()
}
