package runtime

// Memory as a scheduled resource: admission reserves a working-memory grant
// next to the thread reservation, a query that does not fit queues instead
// of overcommitting, the chain-boundary renegotiation returns surplus early,
// and the spill ledgers aggregate per-query disk traffic. These tests admit
// real estimates whose memory side is overwritten (admitMem), so grant
// arithmetic is exact.

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbs3/internal/core"
	"dbs3/internal/lera"
	"dbs3/internal/relation"
	"dbs3/internal/workload"
)

// admitMem admits the plan on its real estimate with the memory side
// overwritten, so thread-side behaviour stays realistic while the memory side
// is deterministic.
func admitMem(m *Manager, plan *lera.Plan, db core.DB, opts *core.Options, mem int64, chainMem ...int64) (*Admission, error) {
	est, err := core.EstimatePlan(plan, db, *opts)
	if err != nil {
		return nil, err
	}
	est.Mem, est.ChainMem = mem, chainMem
	return m.admit(context.Background(), est, opts, PriorityInteractive)
}

// TestMemoryGrantArithmetic: the grant is min(estimate, per-query ceiling,
// free budget), floored at the minimum grant, and Admit rewrites the
// caller's MemoryBudget to it so the execution's accountant enforces what
// admission actually reserved. Finish returns every byte.
func TestMemoryGrantArithmetic(t *testing.T) {
	plan, db := joinPlan(t)
	const budget = 64 << 20

	m := NewManager(Config{Budget: 8, MemoryBudget: budget})
	if st := m.Stats(); st.MemBudget != budget {
		t.Fatalf("MemBudget = %d, want %d", st.MemBudget, budget)
	}

	// Estimate below budget and ceiling: granted in full.
	opts := core.Options{}
	adm, err := admitMem(m, plan, db, &opts, 10<<20, 10<<20)
	if err != nil {
		t.Fatal(err)
	}
	if adm.MemoryGrant() != 10<<20 || opts.MemoryBudget != 10<<20 {
		t.Fatalf("grant = %d, opts.MemoryBudget = %d, want estimate %d", adm.MemoryGrant(), opts.MemoryBudget, 10<<20)
	}
	if st := m.Stats(); st.MemInFlight != 10<<20 || st.PeakMem != 10<<20 {
		t.Fatalf("in flight = %d, peak = %d", st.MemInFlight, st.PeakMem)
	}
	if adm.Stats.MemoryGrant != 10<<20 {
		t.Fatalf("QueryStats.MemoryGrant = %d", adm.Stats.MemoryGrant)
	}

	// A per-query ceiling caps the grant below the estimate.
	opts2 := core.Options{MemoryBudget: 4 << 20}
	adm2, err := admitMem(m, plan, db, &opts2, 10<<20, 10<<20)
	if err != nil {
		t.Fatal(err)
	}
	if adm2.MemoryGrant() != 4<<20 || opts2.MemoryBudget != 4<<20 {
		t.Fatalf("ceiled grant = %d, opts = %d, want %d", adm2.MemoryGrant(), opts2.MemoryBudget, 4<<20)
	}

	// Free headroom caps the grant below the estimate: 64-10-4 = 50 MiB
	// free, estimate asks for 60.
	opts3 := core.Options{}
	adm3, err := admitMem(m, plan, db, &opts3, 60<<20, 60<<20)
	if err != nil {
		t.Fatal(err)
	}
	if adm3.MemoryGrant() != 50<<20 {
		t.Fatalf("headroom-capped grant = %d, want %d", adm3.MemoryGrant(), int64(50<<20))
	}
	if st := m.Stats(); st.MemInFlight != budget {
		t.Fatalf("in flight = %d, want full budget %d", st.MemInFlight, budget)
	}

	adm.Finish(nil)
	adm2.Finish(nil)
	adm3.Finish(nil)
	if st := m.Stats(); st.MemInFlight != 0 {
		t.Fatalf("in flight = %d after Finish, want 0", st.MemInFlight)
	}
	if st := m.Stats(); st.PeakMem != budget {
		t.Fatalf("peak = %d, want high-water %d", st.PeakMem, budget)
	}
}

// TestMemoryStarvedQueryQueues: when the free budget cannot cover even the
// minimum grant, the next query waits in line rather than admitting with a
// zero (= unlimited) grant, and proceeds once a finisher returns its bytes.
// This is the OOM fix in scheduling form: denial means queueing, never an
// unaccounted allocation.
func TestMemoryStarvedQueryQueues(t *testing.T) {
	plan, db := joinPlan(t)
	const budget = 8 << 20

	m := NewManager(Config{Budget: 16, MemoryBudget: budget})
	opts := core.Options{Threads: 2}
	hog, err := admitMem(m, plan, db, &opts, budget, budget)
	if err != nil {
		t.Fatal(err)
	}
	if hog.MemoryGrant() != budget {
		t.Fatalf("hog grant = %d, want full budget", hog.MemoryGrant())
	}

	admitted := make(chan *Admission, 1)
	errc := make(chan error, 1)
	go func() {
		opts2 := core.Options{Threads: 2}
		adm, err := admitMem(m, plan, db, &opts2, 2<<20, 2<<20)
		if err != nil {
			errc <- err
			return
		}
		admitted <- adm
	}()

	// Threads are free (2 of 16 held); only memory blocks the second query.
	deadline := time.Now().Add(2 * time.Second)
	for m.Stats().Queued == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := m.Stats(); st.Queued != 1 {
		t.Fatalf("starved query not queued: %+v", st)
	}
	select {
	case adm := <-admitted:
		adm.Finish(nil)
		t.Fatal("query admitted with no free memory")
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(50 * time.Millisecond):
	}

	hog.Finish(nil)
	select {
	case adm := <-admitted:
		if adm.MemoryGrant() != 2<<20 {
			t.Fatalf("post-wait grant = %d, want estimate", adm.MemoryGrant())
		}
		adm.Finish(nil)
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(2 * time.Second):
		t.Fatal("queued query not admitted after memory freed")
	}
	if st := m.Stats(); st.MemInFlight != 0 {
		t.Fatalf("in flight = %d at drain, want 0", st.MemInFlight)
	}
}

// TestReadmitShrinksMemory: crossing a chain boundary renegotiates the
// memory reservation down to what the remaining chains need — surplus goes
// back to the pool mid-flight, floored at the minimum grant so the
// accountant is never retargeted to unlimited. Growth is never granted: the
// estimate was the high-water mark.
func TestReadmitShrinksMemory(t *testing.T) {
	plan, db := joinPlan(t)
	const budget = 64 << 20

	m := NewManager(Config{Budget: 8, MemoryBudget: budget})
	opts := core.Options{}
	adm, err := admitMem(m, plan, db, &opts, 24<<20, 24<<20, 6<<20, 512<<10)
	if err != nil {
		t.Fatal(err)
	}
	if adm.MemoryHeld() != 24<<20 {
		t.Fatalf("held = %d at admit", adm.MemoryHeld())
	}

	// Entering chain 1: only chains 1.. matter, max(6MiB, 512KiB) = 6MiB.
	m.Readmit(adm, 1, adm.Alloc().Want(1), 1)
	if held := adm.MemoryHeld(); held != 6<<20 {
		t.Fatalf("held = %d after chain-1 readmit, want %d", held, int64(6<<20))
	}
	st := m.Stats()
	if st.MemInFlight != 6<<20 || st.MemReturnedEarly != 18<<20 {
		t.Fatalf("in flight = %d, returned early = %d", st.MemInFlight, st.MemReturnedEarly)
	}

	// Entering chain 2: the remaining need (512KiB) is below the minimum
	// grant, so the hold floors there instead of shrinking to a value the
	// accountant would read as unlimited.
	m.Readmit(adm, 2, adm.Alloc().Want(2), 1)
	if held := adm.MemoryHeld(); held != minMemGrant {
		t.Fatalf("held = %d after chain-2 readmit, want floor %d", held, int64(minMemGrant))
	}

	// The immutable grant is untouched by renegotiation.
	if adm.MemoryGrant() != 24<<20 {
		t.Fatalf("grant = %d, want original", adm.MemoryGrant())
	}
	adm.Finish(nil)
	if st := m.Stats(); st.MemInFlight != 0 {
		t.Fatalf("in flight = %d after Finish", st.MemInFlight)
	}
}

// TestNoteSpillLedgers: per-query spill traffic reported at Finish shows up
// on both the query's stats and the manager's machine-wide counters.
func TestNoteSpillLedgers(t *testing.T) {
	plan, db := joinPlan(t)
	m := NewManager(Config{Budget: 8, MemoryBudget: 16 << 20})
	opts := core.Options{}
	adm, err := admitMem(m, plan, db, &opts, 4<<20, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	adm.NoteSpill(1<<20, 2)
	adm.NoteSpill(512<<10, 1)
	adm.NoteSpill(0, 0) // no-op
	adm.Finish(nil)
	if adm.Stats.SpilledBytes != 1<<20+512<<10 || adm.Stats.SpillPasses != 3 {
		t.Fatalf("query spill = (%d, %d)", adm.Stats.SpilledBytes, adm.Stats.SpillPasses)
	}
	st := m.Stats()
	if st.SpilledBytes != 1<<20+512<<10 || st.SpillPasses != 3 {
		t.Fatalf("manager spill = (%d, %d)", st.SpilledBytes, st.SpillPasses)
	}
}

// TestMemoryBudgetNeverExceeded: under concurrent admissions with varied
// estimates, the reserved total observed at any instant never exceeds the
// manager's memory budget. This is the acceptance invariant for
// multi-resource admission.
func TestMemoryBudgetNeverExceeded(t *testing.T) {
	plan, db := joinPlan(t)
	const budget = 16 << 20
	m := NewManager(Config{Budget: 64, MemoryBudget: budget})

	var exceeded atomic.Bool
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if st := m.Stats(); st.MemInFlight > budget {
				exceeded.Store(true)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				opts := core.Options{Threads: 2}
				adm, err := admitMem(m, plan, db, &opts, 5<<20, 5<<20)
				if err != nil {
					t.Error(err)
					return
				}
				if adm.MemoryGrant() > opts.MemoryBudget {
					t.Errorf("grant %d above rewritten budget %d", adm.MemoryGrant(), opts.MemoryBudget)
				}
				adm.Finish(nil)
			}
		}()
	}
	wg.Wait()
	close(stop)
	sampler.Wait()
	if exceeded.Load() {
		t.Fatal("reserved memory exceeded the manager budget")
	}
	if st := m.Stats(); st.MemInFlight != 0 || st.PeakMem > budget {
		t.Fatalf("drain state: in flight %d, peak %d (budget %d)", st.MemInFlight, st.PeakMem, budget)
	}
}

// TestExecuteKeepsPerQueryBudgetAcrossChains: with the manager's memory
// admission off there is no memory reservation to renegotiate, so a chain
// boundary must leave a query's own MemoryBudget in force. (Retargeting the
// spill accountant to the zero bytes "held" would read as unlimited, and the
// query would silently stop spilling.) The second chain's join, whose build
// side is many times the budget, still goes to disk — with the right answer.
func TestExecuteKeepsPerQueryBudgetAcrossChains(t *testing.T) {
	plan, db := twoChainPlan(t)
	want, _, err := NewManager(Config{Budget: 4}).Execute(context.Background(), plan, db, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	m := NewManager(Config{Budget: 4}) // no Config.MemoryBudget
	res, qs, err := m.Execute(context.Background(), plan, db, core.Options{MemoryBudget: 64 << 10, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(qs.ChainThreads) != 2 {
		t.Fatalf("ChainThreads = %v: the plan did not renegotiate at its chain boundary", qs.ChainThreads)
	}
	if qs.MemoryGrant != 0 {
		t.Fatalf("memory admission is off, yet the query was granted %d bytes", qs.MemoryGrant)
	}
	for id, n := range plan.Nodes {
		if n.Node.Name == "j" && res.Stats[id].SpilledBytes.Load() == 0 {
			t.Error("the second chain's join spilled nothing under a 64 KiB budget")
		}
	}
	if qs.SpilledBytes == 0 || m.Stats().SpilledBytes != qs.SpilledBytes {
		t.Errorf("spill ledgers: query %d bytes, manager %d", qs.SpilledBytes, m.Stats().SpilledBytes)
	}
	if got, ref := res.Outputs["Res"], want.Outputs["Res"]; got.Cardinality() != ref.Cardinality() {
		t.Errorf("spilled run returned %d rows, in-memory run %d", got.Cardinality(), ref.Cardinality())
	}
}

// TestNoMemoryNeedSkipsMemoryWait: a query whose estimate is zero holds no
// memory, so it must not wait for any — a streamed point filter admits at
// once while a join holds the whole memory budget.
func TestNoMemoryNeedSkipsMemoryWait(t *testing.T) {
	plan, db := joinPlan(t)
	const budget = 4 << 10 // far below the join's estimate: the hog gets all of it
	m := NewManager(Config{Budget: 8, MemoryBudget: budget})
	opts := core.Options{Threads: 1}
	hog, err := m.Admit(context.Background(), plan, db, &opts, PriorityInteractive)
	if err != nil {
		t.Fatal(err)
	}
	defer hog.Finish(nil)
	if st := m.Stats(); st.MemInFlight != budget {
		t.Fatalf("hog holds %d of %d bytes, want all", st.MemInFlight, budget)
	}

	g := lera.NewGraph()
	g.ConnectSame(g.Filter("f", "A", lera.ColConst{Col: "k", Op: lera.EQ, Val: relation.Int(7)}), g.Store("s", "Out"))
	filter, err := lera.Bind(g, lera.MapResolver{"A": {Schema: workload.JoinSchema, Degree: db["A"].Degree()}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	fopts := core.Options{Threads: 1, StreamOutput: "Out"} // streamed store: nothing accumulates
	adm, err := m.Admit(ctx, filter, db, &fopts, PriorityInteractive)
	if err != nil {
		t.Fatalf("filter-only query waited for memory it will never hold: %v", err)
	}
	defer adm.Finish(nil)
	if adm.MemoryGrant() != 0 || fopts.MemoryBudget != 0 {
		t.Errorf("grant = %d, opts.MemoryBudget = %d, want 0/0", adm.MemoryGrant(), fopts.MemoryBudget)
	}
	if st := m.Stats(); st.MemInFlight != budget || st.ThreadsInFlight != 2 {
		t.Errorf("MemInFlight/ThreadsInFlight = %d/%d, want %d/2", st.MemInFlight, st.ThreadsInFlight, budget)
	}
}
