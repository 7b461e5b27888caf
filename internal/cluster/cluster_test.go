package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"dbs3"
	"dbs3/internal/esql"
	"dbs3/internal/lera"
	dbruntime "dbs3/internal/runtime"
	"dbs3/internal/server"
)

// testBudget is each worker's thread budget in the cluster tests.
const testBudget = 4

// testShards is the cluster width the correctness suite runs at.
const testShards = 3

// populate loads the shared test catalog into db: a Wisconsin relation and
// the paper's join pair. Every node and the single-node reference run the
// same calls with the same seeds, so sharding is the only difference.
func populate(t *testing.T, db *dbs3.Database) {
	t.Helper()
	if err := db.CreateWisconsin("wisc", 1200, 4, "unique2", 42); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateJoinPair("", 600, 600, 4, 0.5); err != nil {
		t.Fatal(err)
	}
}

// shardAll restricts db to one node's shard, distributing wisc on unique2
// and the join relations on k — the join key, so both sides of every join
// in the suite co-locate per node.
func shardAll(t *testing.T, db *dbs3.Database, shard int) {
	t.Helper()
	for rel, col := range map[string]string{
		"wisc": "unique2",
		"A":    "k",
		"B":    "k",
		"Br":   "k",
	} {
		if err := db.ShardRelation(rel, col, shard, testShards); err != nil {
			t.Fatalf("shard %s on %s: %v", rel, col, err)
		}
	}
}

// testCluster is a 3-worker cluster plus the single-node reference holding
// the union relation.
type testCluster struct {
	coord *Coordinator
	ref   *dbs3.Database
	srvs  []*server.Server
	urls  []string
}

func newTestCluster(t *testing.T, token string) *testCluster {
	t.Helper()
	tc := &testCluster{}
	for i := 0; i < testShards; i++ {
		db := dbs3.New()
		populate(t, db)
		shardAll(t, db, i)
		m := db.Manager(dbs3.ManagerConfig{Budget: testBudget})
		srv := server.New(db, m, server.Config{AuthToken: token})
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		t.Cleanup(func() { ts.Client().CloseIdleConnections() })
		tc.srvs = append(tc.srvs, srv)
		tc.urls = append(tc.urls, ts.URL)
	}
	tc.ref = dbs3.New()
	populate(t, tc.ref)
	coord, err := New(context.Background(), Config{Nodes: tc.urls, Token: token, PollInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	tc.coord = coord
	return tc
}

// drain collects a scatter-gather result into a row multiset.
func drain(t *testing.T, rows *dbs3.Rows) ([][]any, *server.Footer) {
	t.Helper()
	defer rows.Close()
	var out [][]any
	for rows.Next() {
		out = append(out, rows.Row())
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("scatter stream failed: %v", err)
	}
	return out, rows.Footer()
}

// canon renders a row multiset in a comparable canonical order.
func canon(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = fmt.Sprintf("%T:%v", v, v)
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// TestScatterGatherMatchesSingleNode is the tier's correctness property:
// for every selection, join and aggregate in the suite, scatter-gather over
// three workers holding hash-partitioned shards returns the same result
// multiset as a single node holding the union relation.
func TestScatterGatherMatchesSingleNode(t *testing.T) {
	tc := newTestCluster(t, "")
	ctx := context.Background()
	cases := []struct {
		sql  string
		args []any
	}{
		// Selections and projections, with and without parameters.
		{"SELECT * FROM wisc WHERE unique1 < 400", nil},
		{"SELECT unique1, stringu1 FROM wisc WHERE unique2 < ?", []any{300}},
		{"SELECT unique1, ten FROM wisc WHERE unique2 < ? AND ten = ?", []any{600, 3}},
		{"SELECT unique1, ten FROM wisc WHERE unique2 < ? OR ten = ?", []any{100, 3}},
		{"SELECT * FROM A", nil},
		// Joins: the co-partitioned pair and the placed-on-id variant that
		// forces a run-time redistribution inside each node.
		{"SELECT * FROM A JOIN B ON A.k = B.k", nil},
		{"SELECT A.id FROM A JOIN Br ON A.k = Br.k WHERE Br.id < 100", nil},
		// Every aggregate kind, single and multi group columns, with
		// parameters and over a join.
		{"SELECT ten, COUNT(*) FROM wisc GROUP BY ten", nil},
		{"SELECT ten, SUM(unique1) FROM wisc GROUP BY ten", nil},
		{"SELECT two, MIN(unique1) FROM wisc GROUP BY two", nil},
		{"SELECT two, four, MAX(unique1) FROM wisc GROUP BY two, four", nil},
		{"SELECT four, MIN(stringu1) FROM wisc GROUP BY four", nil},
		{"SELECT two, COUNT(*) FROM wisc WHERE unique1 < ? GROUP BY two", []any{500}},
		{"SELECT k, COUNT(*) FROM A JOIN B ON A.k = B.k GROUP BY A.k", nil},
		{"SELECT k, SUM(B.id) FROM A JOIN B ON A.k = B.k GROUP BY A.k", nil},
	}
	for _, c := range cases {
		t.Run(c.sql, func(t *testing.T) {
			want, err := tc.ref.QueryAllContext(context.Background(), c.sql, nil, c.args...)
			if err != nil {
				t.Fatalf("single-node reference: %v", err)
			}
			rows, err := tc.coord.Query(ctx, c.sql, c.args, nil)
			if err != nil {
				t.Fatalf("scatter: %v", err)
			}
			got, foot := drain(t, rows)
			gotC, wantC := canon(got), canon(want.Data)
			if len(gotC) != len(wantC) {
				t.Fatalf("scatter returned %d rows, single node %d", len(gotC), len(wantC))
			}
			for i := range gotC {
				if gotC[i] != wantC[i] {
					t.Fatalf("row multisets diverge at %d:\n  scatter: %s\n  single:  %s", i, gotC[i], wantC[i])
				}
			}
			if foot == nil {
				t.Fatal("complete scatter stream has no footer")
			}
			if foot.RowCount != int64(len(got)) {
				t.Errorf("footer rowCount = %d, want %d", foot.RowCount, len(got))
			}
			if len(foot.Nodes) != testShards {
				t.Errorf("footer has %d node entries, want %d", len(foot.Nodes), testShards)
			}
		})
	}
}

// foldAll folds rows as the shard readers would and returns the merged
// groups the cursor would be handed.
func foldAll(spec *esql.ScatterSpec, header *server.Header, rows [][]any) ([][]any, error) {
	fd, err := newFold(spec, header)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		if err := fd.add(r); err != nil {
			return nil, err
		}
	}
	var out [][]any
	err = fd.emit(func(row []any) error {
		out = append(out, row)
		return nil
	})
	return out, err
}

// TestMergeGroups: partials fold group-wise and come back in group-key
// order (numeric for INT keys), and malformed partials are an error, not a
// panic.
func TestMergeGroups(t *testing.T) {
	sum := &esql.ScatterSpec{HasAgg: true, Merge: lera.AggSum, GroupCols: 1}
	ints := &server.Header{Columns: []string{"k", "v"}, Types: []string{"INT", "INT"}}
	got, err := foldAll(sum, ints, [][]any{
		{int64(10), int64(1)}, {int64(9), int64(2)}, {int64(10), int64(3)}, {int64(2), int64(4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := "[[2 4] [9 2] [10 4]]"; fmt.Sprint(got) != want {
		t.Errorf("merged %v, want %s", got, want)
	}

	bad := []struct {
		name   string
		header *server.Header
		rows   [][]any
	}{
		{"row of the wrong width", ints, [][]any{{int64(1), int64(2)}, {int64(1), int64(2), int64(3)}}},
		{"STRING value under SUM", &server.Header{Columns: []string{"k", "v"}, Types: []string{"INT", "STRING"}},
			[][]any{{int64(1), "a"}, {int64(1), "b"}}},
	}
	for _, c := range bad {
		if _, err := foldAll(sum, c.header, c.rows); err == nil {
			t.Errorf("%s: merged without an error", c.name)
		}
	}
}

// TestScatterHeaderAggregatesCluster: the cluster header sums the nodes'
// thread grants and takes the max utilization — the coordinator's view of
// what the whole fan-out cost.
func TestScatterHeaderAggregatesCluster(t *testing.T) {
	tc := newTestCluster(t, "")
	rows, err := tc.coord.Query(context.Background(), "SELECT * FROM wisc WHERE unique1 < 100", nil, &server.Options{Options: dbs3.Options{Threads: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if threads := rows.Threads(); threads != 2*testShards {
		t.Errorf("cluster header threads = %d, want %d (2 per node)", threads, 2*testShards)
	}
	if cols, types := rows.Columns(), rows.ColumnTypes(); len(cols) == 0 || len(cols) != len(types) {
		t.Errorf("malformed cluster header: columns %v, types %v", cols, types)
	}
	drain(t, rows)
}

// TestCallerCancelEndsInError: a caller's cancellation or deadline that
// cuts a scatter short ends it in an error — from Query, or as Err equal to
// the context's error with no footer — never in a short answer with a nil
// Err. Every such error is one client-visible failure.
func TestCallerCancelEndsInError(t *testing.T) {
	tc := newTestCluster(t, "")
	const wiscRows = 1200
	// run executes sql under ctx, cancelling once the first row arrived
	// when cancelAfterFirst is set, and reports whether it ended in error.
	run := func(t *testing.T, ctx context.Context, cancel context.CancelFunc, sql string, cancelAfterFirst bool) bool {
		t.Helper()
		defer cancel()
		rows, err := tc.coord.Query(ctx, sql, nil, nil)
		if err != nil {
			return true
		}
		defer rows.Close()
		n := 0
		for rows.Next() {
			if n++; n == 1 && cancelAfterFirst {
				cancel()
			}
		}
		if err := rows.Err(); err != nil {
			if !errors.Is(err, ctx.Err()) {
				t.Errorf("Err = %v, want the context's error %v", err, ctx.Err())
			}
			if f := rows.Footer(); f != nil {
				t.Errorf("a result that ended in %v has a footer: %+v", err, f)
			}
			return true
		}
		if n != wiscRows {
			t.Errorf("short answer: %d of %d rows with a nil Err", n, wiscRows)
		}
		if f := rows.Footer(); f == nil || f.RowCount != int64(n) {
			t.Errorf("complete answer's footer = %+v, want rowCount %d", f, n)
		}
		return false
	}

	before := tc.coord.failures.Load()
	failed := int64(0)
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		if run(t, ctx, cancel, "SELECT * FROM wisc", true) {
			failed++
		} else {
			t.Errorf("run %d: cancelled after the first row, yet ended without an error", i)
		}
	}
	// Deadlines swept over 0–2 ms land in the open phase, in the fold and
	// while the merged groups stream out.
	for i := 0; i < 200; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i)*10*time.Microsecond)
		if run(t, ctx, cancel, "SELECT unique1, COUNT(*) FROM wisc GROUP BY unique1", false) {
			failed++
		}
	}
	if got := tc.coord.failures.Load() - before; got != failed {
		t.Errorf("failures counted %d, want %d: one per result that ended in error", got, failed)
	}
}

// TestScatterArgCountChecked: the coordinator pre-checks parameter arity
// before opening any worker stream.
func TestScatterArgCountChecked(t *testing.T) {
	tc := newTestCluster(t, "")
	if _, err := tc.coord.Query(context.Background(), "SELECT * FROM wisc WHERE unique1 < ?", nil, nil); err == nil {
		t.Fatal("missing argument accepted")
	}
	if _, err := tc.coord.Query(context.Background(), "SELECT * FROM wisc", []any{1}, nil); err == nil {
		t.Fatal("surplus argument accepted")
	}
}

// TestPrepareExecLifecycle: the compile-once path — prepare fans out,
// executions bind fresh arguments, close releases every node's half.
func TestPrepareExecLifecycle(t *testing.T) {
	tc := newTestCluster(t, "")
	ctx := context.Background()
	stmt, err := tc.coord.Prepare(ctx, "SELECT two, COUNT(*) FROM wisc WHERE unique1 < ? GROUP BY two", nil)
	if err != nil {
		t.Fatal(err)
	}
	if info := stmt.Info(); info.Params != 1 {
		t.Fatalf("prepared params = %d, want 1", info.Params)
	}
	for _, limit := range []int64{100, 600, 1200} {
		want, err := tc.ref.QueryAllContext(context.Background(), "SELECT two, COUNT(*) FROM wisc WHERE unique1 < ? GROUP BY two", nil, limit)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := stmt.Exec(ctx, []any{limit}, nil)
		if err != nil {
			t.Fatalf("exec limit=%d: %v", limit, err)
		}
		got, _ := drain(t, rows)
		gotC, wantC := canon(got), canon(want.Data)
		if len(gotC) != len(wantC) {
			t.Fatalf("exec limit=%d: %d rows, want %d", limit, len(gotC), len(wantC))
		}
		for i := range gotC {
			if gotC[i] != wantC[i] {
				t.Fatalf("exec limit=%d row %d: got %s want %s", limit, i, gotC[i], wantC[i])
			}
		}
	}
	stmt.Close(ctx)
	if _, err := stmt.Exec(ctx, []any{int64(5)}, nil); !errors.Is(err, server.ErrNoStatement) {
		t.Fatalf("exec of a closed statement: %v, want ErrNoStatement", err)
	}
	// Every worker's half is gone too.
	for i := range tc.urls {
		st, err := (&server.Client{Base: tc.urls[i]}).Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Statements != 0 {
			t.Errorf("node %d still holds %d statements after Close", i, st.Statements)
		}
	}
}

// setSnapshot fabricates one replica's polled stats snapshot.
func setSnapshot(r *replica, st server.StatsResponse) {
	r.mu.Lock()
	r.polled = true
	r.alive = true
	r.stats = st
	r.mu.Unlock()
}

// TestUtilizationExchange: when one shard reports load, fan-outs to the
// *other* shards carry it in Options.Utilization — the [Rahm93] loop across
// machines — while the loaded shard itself is not double-charged.
func TestUtilizationExchange(t *testing.T) {
	tc := newTestCluster(t, "")
	// Fabricate a polled snapshot: shard 0 is busy, the rest idle.
	setSnapshot(tc.coord.shards[0].replicas[0], server.StatsResponse{Stats: dbruntime.Stats{SmoothedUtilization: 0.75}, Budget: testBudget})
	for _, sh := range tc.coord.shards[1:] {
		setSnapshot(sh.replicas[0], server.StatsResponse{Budget: testBudget})
	}
	if got := tc.coord.remoteLoad(tc.coord.shards[1]); got != 0.75 {
		t.Errorf("remoteLoad(shard1) = %v, want 0.75 (shard0's load)", got)
	}
	if got := tc.coord.remoteLoad(tc.coord.shards[0]); got != 0 {
		t.Errorf("remoteLoad(shard0) = %v, want 0 (own load excluded)", got)
	}
	opt := tc.coord.shardOptions(tc.coord.shards[1], &server.Options{Options: dbs3.Options{Utilization: 0.2}})
	if opt.Utilization != 0.75 {
		t.Errorf("fan-out utilization = %v, want max(caller 0.2, remote 0.75)", opt.Utilization)
	}
	// The caller's own higher estimate survives the fold.
	opt = tc.coord.shardOptions(tc.coord.shards[1], &server.Options{Options: dbs3.Options{Utilization: 0.9}})
	if opt.Utilization != 0.9 {
		t.Errorf("fan-out utilization = %v, want caller's 0.9", opt.Utilization)
	}
	// activeThreads/budget dominates a stale EWMA.
	setSnapshot(tc.coord.shards[2].replicas[0], server.StatsResponse{Stats: dbruntime.Stats{ThreadsInFlight: testBudget}, Budget: testBudget})
	if got := tc.coord.remoteLoad(tc.coord.shards[1]); got != 1 {
		t.Errorf("remoteLoad with a saturated shard = %v, want 1", got)
	}
}

// TestClusterPollAndStats: a real poll round marks live nodes alive, folds
// their utilization, and Stats reflects the query counters.
func TestClusterPollAndStats(t *testing.T) {
	tc := newTestCluster(t, "")
	ctx := context.Background()
	tc.coord.Poll(ctx)
	st := tc.coord.Stats()
	if st.Healthy != testShards {
		t.Fatalf("healthy = %d, want %d", st.Healthy, testShards)
	}
	if len(st.Nodes) != testShards {
		t.Fatalf("stats has %d nodes, want %d", len(st.Nodes), testShards)
	}
	for _, ns := range st.Nodes {
		if !ns.Alive || ns.Stats.Budget != testBudget {
			t.Errorf("node %s: alive=%v budget=%d, want alive with budget %d", ns.Node, ns.Alive, ns.Stats.Budget, testBudget)
		}
	}
	rows, err := tc.coord.Query(ctx, "SELECT ten, COUNT(*) FROM wisc GROUP BY ten", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, rows)
	if st := tc.coord.Stats(); st.Queries != 1 || st.Failures != 0 {
		t.Errorf("queries=%d failures=%d, want 1/0", st.Queries, st.Failures)
	}
	tc.coord.Poll(ctx)
	st = tc.coord.Stats()
	if len(st.Nodes) != testShards {
		t.Fatalf("stats has %d nodes after a query, want %d", len(st.Nodes), testShards)
	}
	for _, ns := range st.Nodes {
		if !ns.Alive || ns.Breaker != "closed" {
			t.Errorf("replica %s: alive=%v breaker=%s, want alive/closed", ns.Node, ns.Alive, ns.Breaker)
		}
	}
}
