package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dbs3"
	dbruntime "dbs3/internal/runtime"
)

// testBudget is the shared thread budget every serve test runs under —
// deliberately small so concurrent clients actually contend for it.
const testBudget = 4

// newHTTPServer serves an already-populated database on an ephemeral port.
// Cleanup closes the server and its idle connections so the goroutine-leak
// checks see a quiet world.
func newHTTPServer(t *testing.T, db *dbs3.Database, m *dbruntime.Manager) *Client {
	t.Helper()
	ts := httptest.NewServer(New(db, m, Config{}))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { ts.Client().CloseIdleConnections() })
	return &Client{Base: ts.URL, HTTP: ts.Client()}
}

// newTestServer builds a Wisconsin database, installs a manager with
// testBudget threads, and serves it.
func newTestServer(t *testing.T, wiscCard int) (*Client, *dbruntime.Manager) {
	t.Helper()
	db := dbs3.New()
	if err := db.CreateWisconsin("wisc", wiscCard, 8, "unique2", 42); err != nil {
		t.Fatal(err)
	}
	m := db.Manager(dbs3.ManagerConfig{Budget: testBudget})
	return newHTTPServer(t, db, m), m
}

// goroutineBaseline snapshots the goroutine count before a test body runs.
type goroutineBaseline int

func takeGoroutineBaseline() goroutineBaseline {
	return goroutineBaseline(runtime.NumGoroutine())
}

// check fails the test if the goroutine count has not returned to (near)
// the baseline — the goleak-style assertion that a cancelled query's pool
// threads, sink goroutine and HTTP plumbing all unwound. A small slack
// absorbs runtime background goroutines; the retry loop gives unwinding
// code a moment to finish after the observable state (stats) already
// settled.
func (base goroutineBaseline) check(t *testing.T) {
	t.Helper()
	const slack = 3
	deadline := time.Now().Add(5 * time.Second)
	var now int
	for {
		now = runtime.NumGoroutine()
		if now <= int(base)+slack {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutine leak: %d at baseline, %d after", base, now)
}

// TestServeEndToEnd is the acceptance test: 10 concurrent HTTP clients with
// mixed interactive/batch priorities stream results through a 4-thread
// budget. Rows must arrive correctly for every binding, the manager's
// thread accounting must add up, and the allocated thread count must never
// exceed the budget — sampled live via /stats while the load runs, and
// checked again via the manager's own high-water mark afterwards.
func TestServeEndToEnd(t *testing.T) {
	client, m := newTestServer(t, 20_000)
	const (
		clients    = 10
		executions = 4
	)

	// Warm the plan cache with one serial execution so the concurrent phase
	// cannot race several first-compilations of the same statement (each
	// would count a miss).
	warm, err := client.Query(context.Background(),
		"SELECT unique2 FROM wisc WHERE unique1 < ?", []any{3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for warm.Next() {
	}
	if err := warm.Err(); err != nil {
		t.Fatal(err)
	}

	// Live budget sampler: /stats is polled concurrently with the load.
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
			st, err := client.Stats(context.Background())
			if err == nil && st.ThreadsInFlight > st.Budget {
				t.Errorf("activeThreads %d exceeds budget %d", st.ThreadsInFlight, st.Budget)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pri := "interactive"
			if c%2 == 1 {
				pri = "batch"
			}
			for i := 0; i < executions; i++ {
				limit := (c+1)*50 + i
				stream, err := client.Query(context.Background(),
					"SELECT unique2 FROM wisc WHERE unique1 < ?",
					[]any{limit}, &Options{Priority: pri})
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				n := 0
				for stream.Next() {
					if _, ok := stream.Row()[0].(int64); !ok {
						t.Errorf("client %d: row value %T", c, stream.Row()[0])
					}
					n++
				}
				if err := stream.Err(); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if n != limit {
					t.Errorf("client %d: binding %d returned %d rows", c, limit, n)
					return
				}
				if f := stream.Footer(); f == nil || f.RowCount != int64(limit) {
					t.Errorf("client %d: footer %+v, want rowCount %d", c, f, limit)
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	sampler.Wait()

	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.PeakThreads > st.Budget {
		t.Errorf("peak threads %d exceeded budget %d", st.PeakThreads, st.Budget)
	}
	if st.Budget != testBudget {
		t.Errorf("budget = %d, want %d", st.Budget, testBudget)
	}
	// Every execution completed (warm-up included), nothing is still
	// running, and the ledger balances: admitted = completed when nothing
	// failed or was cancelled.
	want := int64(clients*executions + 1)
	if st.Admitted != want || st.Completed != want || st.Failed != 0 || st.Cancelled != 0 {
		t.Errorf("stats ledger %+v, want %d admitted = completed", st, want)
	}
	if st.Active != 0 || st.ThreadsInFlight != 0 || st.Queued != 0 {
		t.Errorf("load drained but stats show activity: %+v", st)
	}
	// One SQL shape across every execution: the plan compiled exactly once.
	if st.PlanCacheMisses != 1 || st.PlanCacheHits != want-1 {
		t.Errorf("plan cache %d hits / %d misses, want %d/1", st.PlanCacheHits, st.PlanCacheMisses, want-1)
	}
	if mst := m.Stats(); mst.PeakThreads > testBudget {
		t.Errorf("manager high-water mark %d exceeded budget", mst.PeakThreads)
	}
}

// TestServeDisconnectReleasesThreads: a client that vanishes mid-stream
// must not pin its query's threads. The request context cancels, the
// engine unwinds, the admission returns its reservation, and no goroutine
// is left behind.
func TestServeDisconnectReleasesThreads(t *testing.T) {
	client, m := newTestServer(t, 100_000)
	// Baseline after the server is up (its accept loop is not a leak);
	// closing the client's idle connections before the check lets the
	// per-connection serve goroutines drain too.
	base := takeGoroutineBaseline()

	for round, disconnect := range []string{"cancel", "close"} {
		ctx, cancel := context.WithCancel(context.Background())
		stream, err := client.Query(ctx, "SELECT * FROM wisc", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10 && stream.Next(); i++ {
		}
		if st := m.Stats(); st.Active != 1 {
			t.Fatalf("round %d: query not running mid-stream: %+v", round, st)
		}
		// Kill the client: cancelling the request context and closing the
		// response body are the two ways a real client dies mid-stream.
		if disconnect == "cancel" {
			cancel()
		} else {
			stream.Close()
		}

		deadline := time.Now().Add(5 * time.Second)
		for {
			st := m.Stats()
			if st.ThreadsInFlight == 0 && st.Active == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d (%s): threads not released: %+v", round, disconnect, st)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if st := m.Stats(); st.Cancelled != int64(round+1) {
			t.Errorf("round %d (%s): cancelled = %d, want %d", round, disconnect, st.Cancelled, round+1)
		}
		stream.Close()
		cancel()
	}

	// The budget is immediately reusable after both disconnects.
	stream, err := client.Query(context.Background(), "SELECT unique2 FROM wisc WHERE unique1 < ?", []any{7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for stream.Next() {
		n++
	}
	if err := stream.Err(); err != nil || n != 7 {
		t.Fatalf("follow-up query: %d rows, err %v", n, err)
	}

	client.HTTP.CloseIdleConnections()
	base.check(t)
}

// TestServePreparedStatements: the /prepare + /stmt/{id}/exec path — one
// server-side compilation serving many argument bindings, with metadata,
// close, and post-close 404 semantics.
func TestServePreparedStatements(t *testing.T) {
	client, _ := newTestServer(t, 2000)
	ctx := context.Background()

	prep, err := client.Prepare(ctx, "SELECT unique2, stringu1 FROM wisc WHERE unique1 < ?", nil)
	if err != nil {
		t.Fatal(err)
	}
	if prep.Params != 1 {
		t.Errorf("params = %d, want 1", prep.Params)
	}
	if fmt.Sprint(prep.Columns) != "[unique2 stringu1]" || fmt.Sprint(prep.Types) != "[INT STRING]" {
		t.Errorf("metadata %v %v", prep.Columns, prep.Types)
	}

	for _, limit := range []int{1, 17, 400} {
		stream, err := client.Exec(ctx, prep.ID, []any{limit}, nil)
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		n := 0
		for stream.Next() {
			row := stream.Row()
			if _, ok := row[0].(int64); !ok {
				t.Fatalf("limit %d: col 0 is %T", limit, row[0])
			}
			if _, ok := row[1].(string); !ok {
				t.Fatalf("limit %d: col 1 is %T", limit, row[1])
			}
			n++
		}
		if err := stream.Err(); err != nil || n != limit {
			t.Errorf("limit %d: %d rows, err %v", limit, n, err)
		}
	}

	// GET metadata agrees with the prepare response.
	info, err := client.Prepare(ctx, "SELECT unique2 FROM wisc WHERE unique1 < 10", nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Params != 0 {
		t.Errorf("literal statement params = %d", info.Params)
	}

	// Argument errors surface as HTTP errors before any stream starts.
	if _, err := client.Exec(ctx, prep.ID, nil, nil); err == nil || !strings.Contains(err.Error(), "1 argument") {
		t.Errorf("missing arg: %v", err)
	}
	if _, err := client.Exec(ctx, prep.ID, []any{"x"}, nil); err == nil || !strings.Contains(err.Error(), "wants INT") {
		t.Errorf("type mismatch: %v", err)
	}
	if _, err := client.Exec(ctx, prep.ID, []any{1.5}, nil); err == nil {
		t.Errorf("float arg accepted: %v", err)
	}

	// Per-execution option overrides reach admission: an invalid priority
	// is rejected, a valid one executes against the same compiled plan.
	if _, err := client.Exec(ctx, prep.ID, []any{1}, &Options{Priority: "bogus"}); err == nil || !strings.Contains(err.Error(), "unknown priority") {
		t.Errorf("exec priority override not applied: %v", err)
	}
	bstream, err := client.Exec(ctx, prep.ID, []any{5}, &Options{Priority: "batch"})
	if err != nil {
		t.Fatal(err)
	}
	bn := 0
	for bstream.Next() {
		bn++
	}
	if err := bstream.Err(); err != nil || bn != 5 {
		t.Errorf("batch-priority exec: %d rows, err %v", bn, err)
	}

	// Close; the id is gone.
	if err := client.CloseStmt(ctx, prep.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Exec(ctx, prep.ID, []any{1}, nil); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("exec after close: %v", err)
	}
	if err := client.CloseStmt(ctx, prep.ID); err == nil {
		t.Error("double close accepted")
	}

	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Statements != 1 { // the literal statement is still open
		t.Errorf("open statements = %d, want 1", st.Statements)
	}
}

// TestServeMaterializeReadmission: a materialize query over the wire splits
// into two chains and renegotiates its thread reservation at the boundary —
// the per-chain trace arrives in the stream footer and the readmission
// counters appear in GET /stats.
func TestServeMaterializeReadmission(t *testing.T) {
	client, m := newTestServer(t, 5_000)
	ctx := context.Background()

	stream, err := client.Query(ctx, "SELECT ten, COUNT(*) FROM wisc GROUP BY ten", nil, &Options{Materialize: true})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	rows := 0
	for stream.Next() {
		rows++
	}
	if err := stream.Err(); err != nil {
		t.Fatal(err)
	}
	if rows != 10 {
		t.Fatalf("got %d groups, want 10", rows)
	}
	footer := stream.Footer()
	if footer == nil {
		t.Fatal("no footer")
	}
	if len(footer.ChainThreads) != 2 {
		t.Fatalf("footer ChainThreads = %v, want one grant per chain", footer.ChainThreads)
	}
	for ci, g := range footer.ChainThreads {
		if g < 1 || g > testBudget {
			t.Errorf("chain %d granted %d threads outside [1, budget]", ci, g)
		}
	}

	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Readmissions <= 0 {
		t.Errorf("/stats readmissions = %d, want > 0", st.Readmissions)
	}
	if st.Readmissions != m.Stats().Readmissions {
		t.Errorf("/stats readmissions %d != manager %d", st.Readmissions, m.Stats().Readmissions)
	}
	if st.ThreadsInFlight != 0 || st.Active != 0 {
		t.Errorf("threads leaked: %+v", st)
	}
	if st.PeakThreads > testBudget {
		t.Errorf("peak %d exceeded budget", st.PeakThreads)
	}
}
