package core

// Larger-than-memory equivalence suite: every join algorithm with a build
// structure, and every aggregate shape, executed under a memory budget tiny
// enough that the working set exceeds it several times over (forcing
// multi-pass Grace partitioning and sorted-run merges) must be
// indistinguishable from the unbounded in-memory run in everything but disk
// traffic — identical result multisets and identical per-operator
// activation/emission accounting, at batch grains 1 and 64, under -race.
// Cancellation mid-spill must leave no temp files and no open descriptors.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"dbs3/internal/esql"
	"dbs3/internal/lera"
	"dbs3/internal/workload"
)

// spillBudget is a deliberately starved grant: two pages. The join build
// sides and aggregate tables below are 4x-10x larger, so every blocking
// operator overruns it and degrades to disk.
const spillBudget = 16 << 10

// spillGrains exercises the per-tuple and vectorized data planes against the
// spill paths (grace probes buffer per batch; runs flush at page grain).
var spillGrains = []int{1, 64}

func totalSpilled(res *Result) (bytes, passes int64) {
	for _, st := range res.Stats {
		bytes += st.SpilledBytes.Load()
		passes += st.SpillPasses.Load()
	}
	return bytes, passes
}

func TestSpillEquivalenceJoins(t *testing.T) {
	// 4000 B-tuples at ~70 in-memory bytes each put the build side near
	// 280KB — well past 4x the 16KB budget.
	db, err := workload.NewJoinDB(8000, 4000, 8, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []lera.JoinAlgo{lera.HashJoin, lera.TempIndex} {
		for _, assoc := range []bool{false, true} {
			name := fmt.Sprintf("algo=%v/assoc=%v", algo, assoc)
			// Unbounded in-memory reference, strict per-tuple protocol.
			base := Options{Threads: 4, BatchGrain: 1, NoVectorize: true}
			ref := executeJoin(t, db, assoc, algo, base)
			refRel, err := ref.Relation("Res")
			if err != nil {
				t.Fatal(err)
			}
			refStats := statsSnapshot(ref)
			if err := db.VerifyJoinResult(ref.Outputs["Res"]); err != nil {
				t.Fatalf("%s: in-memory reference wrong: %v", name, err)
			}
			if b, _ := totalSpilled(ref); b != 0 {
				t.Fatalf("%s: unbounded reference spilled %d bytes", name, b)
			}
			for _, bg := range spillGrains {
				opts := base
				opts.BatchGrain = bg
				opts.NoVectorize = bg == 1 // grain 1 stays per-tuple, 64 vectorizes
				opts.MemoryBudget = spillBudget
				opts.SpillDir = t.TempDir()
				got := executeJoin(t, db, assoc, algo, opts)
				gotRel, err := got.Relation("Res")
				if err != nil {
					t.Fatal(err)
				}
				if !gotRel.EqualMultiset(refRel) {
					t.Errorf("%s: spilled grain %d result differs from in-memory reference", name, bg)
				}
				if err := db.VerifyJoinResult(got.Outputs["Res"]); err != nil {
					t.Errorf("%s: spilled grain %d result wrong: %v", name, bg, err)
				}
				if gs := statsSnapshot(got); !statsEqual(gs, refStats) {
					t.Errorf("%s: spilled grain %d accounting %v, in-memory %v — spilling must not change activation accounting",
						name, bg, gs, refStats)
				}
				bytes, passes := totalSpilled(got)
				if bytes == 0 || passes == 0 {
					t.Errorf("%s: grain %d with budget %d did not spill (bytes=%d passes=%d)", name, bg, spillBudget, bytes, passes)
				}
				// The spill dir is clean once the query completed.
				ents, err := os.ReadDir(opts.SpillDir)
				if err != nil {
					t.Fatal(err)
				}
				if len(ents) != 0 {
					t.Errorf("%s: grain %d left %d spill files behind", name, bg, len(ents))
				}
			}
		}
	}
}

func TestSpillEquivalenceAggregates(t *testing.T) {
	// High-cardinality groupings so the accumulator tables dwarf the budget;
	// the low-cardinality one rides along to prove a fitting query is
	// untouched by the machinery.
	cases := []struct {
		sql        string
		wantsSpill bool
	}{
		{"SELECT unique2, COUNT(*) FROM wisc GROUP BY unique2", true},
		{"SELECT unique1, SUM(unique2) FROM wisc GROUP BY unique1", true},
		{"SELECT unique2, MAX(unique1) FROM wisc WHERE unique1 < 3000 GROUP BY unique2", true},
		{"SELECT ten, COUNT(*) FROM wisc GROUP BY ten", false},
	}
	for _, partKey := range []string{"unique2", "four"} {
		for _, tc := range cases {
			plan, db := wisconsinPlan(t, tc.sql, partKey, 4000, 8, false)
			run := func(budget int64, dir string, bg int, noVec bool) (*Result, map[int][3]int64) {
				res, err := Execute(plan, db, Options{
					Threads: 4, BatchGrain: bg, NoVectorize: noVec,
					MemoryBudget: budget, SpillDir: dir,
				})
				if err != nil {
					t.Fatalf("part=%s sql=%q budget=%d: %v", partKey, tc.sql, budget, err)
				}
				return res, statsSnapshot(res)
			}
			ref, refStats := run(0, "", 1, true)
			refRel, err := ref.Relation(esql.OutputName)
			if err != nil {
				t.Fatal(err)
			}
			if refRel.Cardinality() == 0 {
				t.Fatalf("part=%s sql=%q: empty reference result", partKey, tc.sql)
			}
			for _, bg := range spillGrains {
				dir := t.TempDir()
				got, gotStats := run(spillBudget, dir, bg, bg == 1)
				gotRel, err := got.Relation(esql.OutputName)
				if err != nil {
					t.Fatal(err)
				}
				if !gotRel.EqualMultiset(refRel) {
					t.Errorf("part=%s sql=%q grain=%d: spilled result differs from in-memory reference", partKey, tc.sql, bg)
				}
				if !statsEqual(gotStats, refStats) {
					t.Errorf("part=%s sql=%q grain=%d: spilled accounting %v, in-memory %v", partKey, tc.sql, bg, gotStats, refStats)
				}
				bytes, _ := totalSpilled(got)
				if tc.wantsSpill && bytes == 0 {
					t.Errorf("part=%s sql=%q grain=%d: budget %d did not force a spill", partKey, tc.sql, bg, spillBudget)
				}
				if !tc.wantsSpill && bytes != 0 {
					t.Errorf("part=%s sql=%q grain=%d: fitting query spilled %d bytes", partKey, tc.sql, bg, bytes)
				}
				if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
					t.Errorf("part=%s sql=%q grain=%d: spill dir not clean after completion (%d entries, %v)", partKey, tc.sql, bg, len(ents), err)
				}
			}
		}
	}
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// TestSpillCancellationCleansUp: a query cancelled mid-spill must remove its
// partition files and close their descriptors — no temp-file or FD leak from
// an execution that never reached its own cleanup path.
func TestSpillCancellationCleansUp(t *testing.T) {
	db, err := workload.NewJoinDB(20_000, 8_000, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.AssocJoinPlan(lera.HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fdsBefore := openFDs(t)
	ctx, cancel := context.WithCancel(context.Background())
	sink := &cancelSink{after: 20, cancel: cancel}
	_, err = ExecuteContext(ctx, plan, db.Relations(), Options{
		Threads: 4, MemoryBudget: spillBudget, SpillDir: dir,
		StreamOutput: "Res", Sink: sink,
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The engine's deferred env.Close runs before ExecuteContext returns,
	// but give the FD table a moment to settle under -race scheduling.
	deadline := time.Now().Add(5 * time.Second)
	for openFDs(t) > fdsBefore && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := openFDs(t); got > fdsBefore {
		t.Errorf("descriptors leaked: %d before, %d after cancel", fdsBefore, got)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("cancelled query left %d spill files in %s", len(ents), dir)
	}
}

// TestSpillBudgetNeverExceeded: while a starved join runs, the accountant's
// resident figure stays within the same order as the grant — the build never
// materializes in memory. This is a coarse invariant (reservations may
// transiently overshoot by one tuple batch before the spill releases), so it
// checks the final state: all reservations returned.
func TestSpillAccountingDrains(t *testing.T) {
	db, err := workload.NewJoinDB(8000, 4000, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.IdealJoinPlan(lera.HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(plan, db.Relations(), Options{Threads: 4, MemoryBudget: spillBudget, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.VerifyJoinResult(res.Outputs["Res"]); err != nil {
		t.Fatal(err)
	}
	if b, _ := totalSpilled(res); b == 0 {
		t.Fatal("expected the starved join to spill")
	}
}
