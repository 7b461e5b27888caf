package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"

	"dbs3"
	"dbs3/internal/faultinject"
	dbruntime "dbs3/internal/runtime"
	"dbs3/internal/server"
)

// ndjsonWire is the NDJSON stream content type, for fake workers.
const ndjsonWire = "application/x-ndjson"

// newWorkerURL spins up one real worker. sharded restricts it to one shard
// of testShards; otherwise it holds the full catalog (a 1-shard cluster's
// replica).
func newWorkerURL(t *testing.T, shard int, sharded bool) string {
	t.Helper()
	db := dbs3.New()
	populate(t, db)
	if sharded {
		shardAll(t, db, shard)
	}
	m := db.Manager(dbs3.ManagerConfig{Budget: testBudget})
	ts := httptest.NewServer(server.New(db, m, server.Config{}))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { ts.Client().CloseIdleConnections() })
	return ts.URL
}

// newFailoverCoord builds a Coordinator for the failover tests with polling
// off: the tests drive Poll explicitly.
func newFailoverCoord(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	cfg.PollInterval = -1
	coord, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	return coord
}

// newChaosProxy fronts a worker with a fault-injection proxy.
func newChaosProxy(t *testing.T, target string, inj faultinject.Injector) *faultinject.Proxy {
	t.Helper()
	p, err := faultinject.New(trimScheme(target), inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// trimScheme converts an httptest URL to the host:port a TCP proxy dials.
func trimScheme(url string) string {
	const p = "http://"
	if len(url) > len(p) && url[:len(p)] == p {
		return url[len(p):]
	}
	return url
}

// prefer pins replica placement: first gets load 0, the rest 0.9, so the
// shard's candidate order is deterministic regardless of round-robin
// rotation.
func prefer(first *replica, rest ...*replica) {
	setSnapshot(first, server.StatsResponse{Budget: testBudget})
	for _, r := range rest {
		setSnapshot(r, server.StatsResponse{Stats: dbruntime.Stats{SmoothedUtilization: 0.9}, Budget: testBudget})
	}
}

// TestMidStreamFailoverBeforeFirstRow is the tentpole's core property: a
// replica that dies after the header barrier but before its first row is
// merged is replaced transparently — the query completes with the correct
// result, the failover is counted, and no client-visible failure occurs.
func TestMidStreamFailoverBeforeFirstRow(t *testing.T) {
	const sql = "SELECT unique1, stringu1 FROM wisc WHERE unique2 < 300"
	ctx := context.Background()
	urls := make([]string, testShards)
	for i := range urls {
		urls[i] = newWorkerURL(t, i, true)
	}
	// Capture the true result shape so the doomed fake's header passes the
	// cluster barrier.
	probe, err := (&server.Client{Base: urls[0]}).Query(ctx, sql, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	shape := *probe.Header()
	probe.Close()

	// The fake sibling: a valid header, then a dead connection before any
	// row — the canonical kill-mid-stream-before-first-row failure.
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/query" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", ndjsonWire)
		enc := server.NewStreamEncoder(w, ndjsonWire, shape.Types)
		enc.Header(&server.Header{Columns: shape.Columns, Types: shape.Types, Threads: 1})
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	}))
	t.Cleanup(fake.Close)
	t.Cleanup(func() { fake.Client().CloseIdleConnections() })

	coord := newFailoverCoord(t, Config{
		Nodes: []string{fake.URL + "|" + urls[0], urls[1], urls[2]},
	})
	prefer(coord.shards[0].replicas[0], coord.shards[0].replicas[1])

	ref := dbs3.New()
	populate(t, ref)
	want, err := ref.QueryAllContext(context.Background(), sql, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := coord.Query(ctx, sql, nil, nil)
	if err != nil {
		t.Fatalf("scatter with a doomed replica: %v", err)
	}
	got, foot := drain(t, rows)
	gotC, wantC := canon(got), canon(want.Data)
	if len(gotC) != len(wantC) {
		t.Fatalf("failover result has %d rows, reference %d", len(gotC), len(wantC))
	}
	for i := range gotC {
		if gotC[i] != wantC[i] {
			t.Fatalf("failover result diverges at row %d: got %s want %s", i, gotC[i], wantC[i])
		}
	}
	if foot.Nodes[0].Node != urls[0] {
		t.Errorf("shard 0 footer credits %s, want the surviving sibling %s", foot.Nodes[0].Node, urls[0])
	}
	if n := coord.failovers.Load(); n != 1 {
		t.Errorf("failovers = %d, want 1", n)
	}
	if n := coord.failures.Load(); n != 0 {
		t.Errorf("failures = %d, want 0 (the failover was transparent)", n)
	}
	if n := coord.queries.Load(); n != 1 {
		t.Errorf("queries = %d, want 1", n)
	}
}

// TestExecFailoverKeepsPrepareOptions: an execution that lands on a replica
// which was down when the statement was prepared runs under the options
// the statement was prepared with, exactly as on any other replica.
func TestExecFailoverKeepsPrepareOptions(t *testing.T) {
	ctx := context.Background()
	proxyA := newChaosProxy(t, newWorkerURL(t, 0, false), faultinject.Script(nil))
	proxyB := newChaosProxy(t, newWorkerURL(t, 0, false), faultinject.Script(nil))
	coord := newFailoverCoord(t, Config{Nodes: []string{proxyA.URL() + "|" + proxyB.URL()}})
	repA, repB := coord.shards[0].replicas[0], coord.shards[0].replicas[1]

	// A is down while the statement is prepared.
	proxyA.SetDown(true)
	prefer(repA, repB)
	stmt, err := coord.Prepare(ctx, "SELECT ten, COUNT(*) FROM wisc GROUP BY ten",
		&server.Options{Options: dbs3.Options{Priority: "batch", Strategy: "lpt"}})
	if err != nil {
		t.Fatal(err)
	}
	// A comes back and is preferred; B is severed and stays down.
	proxyA.SetDown(false)
	proxyB.Sever()
	proxyB.SetDown(true)
	prefer(repA, repB)

	rows, err := stmt.Exec(ctx, nil, nil)
	if err != nil {
		t.Fatalf("exec on the replica that missed the prepare: %v", err)
	}
	got, foot := drain(t, rows)
	if len(got) != 10 {
		t.Errorf("exec returned %d groups, want 10", len(got))
	}
	if len(foot.Nodes) != 1 || foot.Nodes[0].Node != repA.name {
		t.Fatalf("footer nodes %+v, want the one shard served by %s", foot.Nodes, repA.name)
	}
	for _, nf := range foot.Nodes {
		if nf.Admission == nil || nf.Admission.Priority != "batch" {
			t.Errorf("node %s admission %+v, want priority batch", nf.Node, nf.Admission)
		}
		if len(nf.Operators) == 0 {
			t.Errorf("node %s reports no operators", nf.Node)
		}
		for _, op := range nf.Operators {
			if op.Strategy != "lpt" {
				t.Errorf("node %s operator %s ran %s, want lpt", nf.Node, op.Name, op.Strategy)
			}
		}
	}
}

// TestAllReplicasDownSurfacesShardError: when every replica of a shard is
// down the query fails with a ShardError naming the shard and how many
// replicas were tried — and once the replicas revive, the shard serves
// again without coordinator surgery.
func TestAllReplicasDownSurfacesShardError(t *testing.T) {
	ctx := context.Background()
	url := newWorkerURL(t, 0, false)
	p1 := newChaosProxy(t, url, faultinject.Script(nil))
	p2 := newChaosProxy(t, url, faultinject.Script(nil))
	coord := newFailoverCoord(t, Config{Nodes: []string{p1.URL() + "|" + p2.URL()}})
	p1.SetDown(true)
	p2.SetDown(true)

	_, err := coord.Query(ctx, "SELECT * FROM A", nil, nil)
	if err == nil {
		t.Fatal("query succeeded with every replica down")
	}
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("all-replicas-down error is %T (%v), want *ShardError", err, err)
	}
	if se.Shard != 0 || se.Replicas != 2 {
		t.Errorf("ShardError{Shard: %d, Replicas: %d}, want shard 0 after 2 replicas", se.Shard, se.Replicas)
	}
	if n := coord.failures.Load(); n != 1 {
		t.Errorf("failures = %d, want 1 (this one was client-visible)", n)
	}

	p1.SetDown(false)
	p2.SetDown(false)
	rows, err := coord.Query(ctx, "SELECT * FROM A", nil, nil)
	if err != nil {
		t.Fatalf("query after revival: %v", err)
	}
	got, _ := drain(t, rows)
	if len(got) == 0 {
		t.Error("revived shard returned no rows")
	}
	if n := coord.failures.Load(); n != 1 {
		t.Errorf("failures = %d after recovery, want still 1", n)
	}
}

// flakyWorker fabricates a single-shard NDJSON worker that kills its first
// /query connection after the header and serves the given rows on every
// later one — the deterministic die-then-recover replica.
func flakyWorker(t *testing.T, columns, types []string, rows [][]any) *httptest.Server {
	t.Helper()
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/query" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", ndjsonWire)
		enc := server.NewStreamEncoder(w, ndjsonWire, types)
		enc.Header(&server.Header{Columns: columns, Types: types, Threads: 1})
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		if hits.Add(1) == 1 {
			panic(http.ErrAbortHandler) // die before the first row
		}
		enc.Rows(rows)
		enc.Done(&server.Footer{RowCount: int64(len(rows)), Threads: 1})
	}))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { ts.Client().CloseIdleConnections() })
	return ts
}

// TestRetryWholeQueryRestartsStreaming: with a single replica there is no
// sibling to fail over to, so the whole scatter restarts once —
// mid-iteration, through Rows.Next — and the consumer never sees the death.
func TestRetryWholeQueryRestartsStreaming(t *testing.T) {
	ctx := context.Background()
	fake := flakyWorker(t, []string{"unique1"}, []string{"INT"},
		[][]any{{int64(1)}, {int64(2)}, {int64(3)}})
	coord := newFailoverCoord(t, Config{Nodes: []string{fake.URL}})
	rows, err := coord.Query(ctx, "SELECT unique1 FROM wisc", nil, nil)
	if err != nil {
		t.Fatalf("query against the flaky worker: %v", err)
	}
	got, foot := drain(t, rows)
	if len(got) != 3 {
		t.Fatalf("restarted stream delivered %d rows, want 3", len(got))
	}
	if got[0][0] != int64(1) || got[2][0] != int64(3) {
		t.Errorf("restarted stream rows = %v", got)
	}
	if foot == nil || foot.RowCount != 3 {
		t.Errorf("restarted stream footer = %+v, want rowCount 3", foot)
	}
	if n := coord.wholeQueryRetries.Load(); n != 1 {
		t.Errorf("wholeQueryRetries = %d, want 1", n)
	}
	if n := coord.failures.Load(); n != 0 {
		t.Errorf("failures = %d, want 0 (the restart was transparent)", n)
	}
	if n := coord.queries.Load(); n != 1 {
		t.Errorf("queries = %d, want 1 (a restart is not a new query)", n)
	}
}

// TestRetryWholeQueryRestartsAggregate: the same single-replica death under
// an aggregate — the failure surfaces during the coordinator-side merge,
// before Rows is returned, and the retry happens inside scatter.
func TestRetryWholeQueryRestartsAggregate(t *testing.T) {
	ctx := context.Background()
	fake := flakyWorker(t, []string{"ten", "count"}, []string{"INT", "INT"},
		[][]any{{int64(0), int64(5)}, {int64(1), int64(7)}})
	coord := newFailoverCoord(t, Config{Nodes: []string{fake.URL}})
	rows, err := coord.Query(ctx, "SELECT ten, COUNT(*) FROM wisc GROUP BY ten", nil, nil)
	if err != nil {
		t.Fatalf("aggregate against the flaky worker: %v", err)
	}
	got, _ := drain(t, rows)
	if len(got) != 2 || got[0][1] != int64(5) || got[1][1] != int64(7) {
		t.Errorf("restarted aggregate = %v, want [[0 5] [1 7]]", got)
	}
	if n := coord.wholeQueryRetries.Load(); n != 1 {
		t.Errorf("wholeQueryRetries = %d, want 1", n)
	}
	if n := coord.failures.Load(); n != 0 {
		t.Errorf("failures = %d, want 0", n)
	}
}

// TestPostMergeFailureWithoutRetryIsVisible: a failure the one whole-query
// restart cannot absorb keeps first-error-wins — the client sees exactly
// one error and the counters record it. Two ways past the restart: it is
// spent on a replica that dies again, or the consumer already holds a row.
func TestPostMergeFailureWithoutRetryIsVisible(t *testing.T) {
	ctx := context.Background()
	// dyingWorker serves the header and the first `rows` rows of every
	// /query, then kills the connection: no attempt ever completes.
	dyingWorker := func(t *testing.T, rows int) (*httptest.Server, *atomic.Int64) {
		var hits atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/query" {
				http.NotFound(w, r)
				return
			}
			hits.Add(1)
			w.Header().Set("Content-Type", ndjsonWire)
			enc := server.NewStreamEncoder(w, ndjsonWire, []string{"INT"})
			enc.Header(&server.Header{Columns: []string{"ten"}, Types: []string{"INT"}, Threads: 1})
			for i := 0; i < rows; i++ {
				enc.Rows([][]any{{int64(i)}})
			}
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			panic(http.ErrAbortHandler)
		}))
		t.Cleanup(ts.Close)
		t.Cleanup(func() { ts.Client().CloseIdleConnections() })
		return ts, &hits
	}

	t.Run("restart-spent", func(t *testing.T) {
		dead, hits := dyingWorker(t, 0)
		coord := newFailoverCoord(t, Config{Nodes: []string{dead.URL}})
		if _, err := coord.Query(ctx, "SELECT ten, COUNT(*) FROM wisc GROUP BY ten", nil, nil); err == nil {
			t.Fatal("aggregate over a dying single replica succeeded")
		}
		if n := hits.Load(); n != 2 {
			t.Errorf("replica saw %d queries, want 2 (the first run and one restart)", n)
		}
		if n := coord.failures.Load(); n != 1 {
			t.Errorf("failures = %d, want 1", n)
		}
		if n := coord.wholeQueryRetries.Load(); n != 1 {
			t.Errorf("wholeQueryRetries = %d, want 1 (restarted exactly once)", n)
		}
	})

	t.Run("after-first-row", func(t *testing.T) {
		dead, hits := dyingWorker(t, 1)
		coord := newFailoverCoord(t, Config{Nodes: []string{dead.URL}})
		rows, err := coord.Query(ctx, "SELECT ten FROM wisc", nil, nil)
		if err != nil {
			t.Fatalf("open against the dying replica: %v", err)
		}
		defer rows.Close()
		if !rows.Next() {
			t.Fatalf("no first row: %v", rows.Err())
		}
		if rows.Next() {
			t.Fatalf("a second row %v arrived from a replica that died after one", rows.Row())
		}
		if rows.Err() == nil {
			t.Fatal("death after the first row ended the result without an error")
		}
		if n := hits.Load(); n != 1 {
			t.Errorf("replica saw %d queries, want 1 (no restart once a row was delivered)", n)
		}
		if n := coord.failures.Load(); n != 1 {
			t.Errorf("failures = %d, want 1", n)
		}
		if n := coord.wholeQueryRetries.Load(); n != 0 {
			t.Errorf("wholeQueryRetries = %d, want 0", n)
		}
	})
}

// TestDownReplicaCostsOneConnection: a preferred replica that refuses every
// connection costs the query one connection attempt before it fails over to
// the sibling — the wire client does not re-dial it. The coordinator runs
// with its defaults, polling apart.
func TestDownReplicaCostsOneConnection(t *testing.T) {
	const sql = "SELECT ten, COUNT(*) FROM wisc GROUP BY ten"
	ctx := context.Background()
	url := newWorkerURL(t, 0, false)
	down := newChaosProxy(t, url, faultinject.Script(nil))
	down.SetDown(true)
	coord, err := New(ctx, Config{Nodes: []string{down.URL() + "|" + url}, PollInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	prefer(coord.shards[0].replicas[0], coord.shards[0].replicas[1])

	ref := dbs3.New()
	populate(t, ref)
	want, err := ref.QueryAllContext(ctx, sql, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := coord.Query(ctx, sql, nil, nil)
	if err != nil {
		t.Fatalf("query with the preferred replica down: %v", err)
	}
	got, _ := drain(t, rows)
	if gotC, wantC := canon(got), canon(want.Data); !slices.Equal(gotC, wantC) {
		t.Errorf("failover result %v, want %v", gotC, wantC)
	}
	if n := coord.failovers.Load(); n != 1 {
		t.Errorf("failovers = %d, want 1", n)
	}
	if n := down.Conns(); n != 1 {
		t.Errorf("the down replica took %d connections, want 1", n)
	}
}
