package dbs3

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"dbs3/internal/core"
	"dbs3/internal/esql"
)

// TestMaterializeQueryAdaptsMidFlight: a Materialize statement under a
// QueryManager renegotiates its reservation at the chain boundary — the
// per-chain trace surfaces on the cursor, the manager counts the
// readmissions, and the answer matches the single-chain plan's.
func TestMaterializeQueryAdaptsMidFlight(t *testing.T) {
	db := New()
	if err := db.CreateWisconsin("wisc", 5_000, 8, "unique2", 7); err != nil {
		t.Fatal(err)
	}
	m := db.Manager(ManagerConfig{Budget: 6})

	plain, err := db.QueryAllContext(context.Background(), "SELECT ten, COUNT(*) FROM wisc GROUP BY ten", nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.QueryAllContext(context.Background(), "SELECT ten, COUNT(*) FROM wisc GROUP BY ten", &Options{Materialize: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Data) != len(plain.Data) {
		t.Fatalf("materialized plan returned %d groups, plain %d", len(res.Data), len(plain.Data))
	}
	if len(res.ChainThreads) != 2 {
		t.Fatalf("ChainThreads = %v, want one grant per chain", res.ChainThreads)
	}
	for ci, g := range res.ChainThreads {
		if g < 1 || g > 6 {
			t.Errorf("chain %d granted %d threads outside [1, budget]", ci, g)
		}
	}
	st := m.Stats()
	if st.Readmissions != 2 {
		t.Errorf("Readmissions = %d, want 2 (one per chain)", st.Readmissions)
	}
	if st.PeakThreads > 6 {
		t.Errorf("peak threads %d exceeded the budget", st.PeakThreads)
	}
	if st.ThreadsInFlight != 0 {
		t.Errorf("threads leaked: %+v", st)
	}

	// The footer renders the trace.
	if s := res.String(); !strings.Contains(s, "chain threads") {
		t.Errorf("Result.String() missing the chain trace:\n%s", s)
	}

	// Unmanaged and single-chain cursors report no trace.
	rows, err := db.QueryContext(context.Background(), "SELECT ten, COUNT(*) FROM wisc GROUP BY ten", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.All(); err != nil {
		t.Fatal(err)
	}
	if ct := rows.Footer().ChainThreads; len(ct) != 0 {
		t.Errorf("single-chain trace = %v, want empty", ct)
	}
}

// TestExplainChainSplit: EXPLAIN foots the DOT graph with the per-chain
// allocation split, including the renegotiation wants of a Materialize plan.
func TestExplainChainSplit(t *testing.T) {
	db := New()
	if err := db.CreateWisconsin("wisc", 2_000, 8, "unique2", 7); err != nil {
		t.Fatal(err)
	}
	db.Manager(ManagerConfig{Budget: 8})

	dot, err := db.ExplainContext(context.Background(), "SELECT ten, COUNT(*) FROM wisc GROUP BY ten", &Options{Materialize: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"// allocation:", "// chain 0:", "// chain 1:", "want=", "renegotiates"} {
		if !strings.Contains(dot, want) {
			t.Errorf("EXPLAIN missing %q:\n%s", want, dot)
		}
	}
	single, err := db.ExplainContext(context.Background(), "SELECT unique2 FROM wisc WHERE unique1 < 10", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(single, "// chain 0:") || strings.Contains(single, "// chain 1:") {
		t.Errorf("single-chain EXPLAIN footer wrong:\n%s", single)
	}
}

// TestExplainPricesTheExecution: EXPLAIN's footer is the allocation the
// execution plans — with the final store streamed, not materialized, so a
// plain scan reserves no memory and a GROUP BY only its group table.
func TestExplainPricesTheExecution(t *testing.T) {
	db := New()
	if err := db.CreateWisconsin("wisc", 10000, 8, "unique2", 1); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT * FROM wisc WHERE unique1 < 100",
		"SELECT ten, COUNT(*) FROM wisc GROUP BY ten",
	} {
		dot, err := db.ExplainContext(context.Background(), sql, nil)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := db.prepare(sql, nil)
		if err != nil {
			t.Fatal(err)
		}
		rels, _ := db.snapshotRels()
		alloc, err := core.PlanAllocation(prep.plan, rels, core.Options{StreamOutput: esql.OutputName})
		if err != nil {
			t.Fatal(err)
		}
		want := []string{fmt.Sprintf("// allocation: %d threads over 1 chain(s)\n", alloc.Total)}
		if alloc.MemEstimate > 0 {
			want = append(want, fmt.Sprintf("// memory estimate: %d bytes peak (per chain: %v);", alloc.MemEstimate, alloc.ChainMem))
		}
		footer := dot[strings.Index(dot, "// allocation:"):]
		for _, w := range want {
			if !strings.Contains(footer, w) {
				t.Errorf("%s: EXPLAIN footer lacks %q:\n%s", sql, w, footer)
			}
		}
		if alloc.MemEstimate == 0 && strings.Contains(footer, "memory estimate") {
			t.Errorf("%s: EXPLAIN prices memory the execution does not reserve:\n%s", sql, footer)
		}
	}
}
