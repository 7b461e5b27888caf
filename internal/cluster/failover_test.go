package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"dbs3"
	"dbs3/internal/faultinject"
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

// newFailoverCoord builds a Coordinator for the failover tests: polling off
// (tests drive Poll explicitly) and client connect-retries off, so every
// fault reaches the failover machinery instead of being absorbed by the
// wire client.
func newFailoverCoord(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	cfg.PollInterval = -1
	cfg.Retries = -1
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
		setSnapshot(r, server.StatsResponse{SmoothedUtilization: 0.9, Budget: testBudget})
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
		Wire:  "ndjson",
	})
	prefer(coord.shards[0].replicas[0], coord.shards[0].replicas[1])

	ref := dbs3.New()
	populate(t, ref)
	want, err := ref.QueryAll(sql, nil)
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

// TestExecFailoverRepreparesOnSibling: a prepared execution whose preferred
// replica is dead fails over to the sibling; the sibling lost its half of
// the statement, so the failover also re-prepares — both repairs counted,
// both visible on the coordinator's /stats.
func TestExecFailoverRepreparesOnSibling(t *testing.T) {
	ctx := context.Background()
	urlA := newWorkerURL(t, 0, false)
	urlB := newWorkerURL(t, 0, false)
	proxy := newChaosProxy(t, urlA, faultinject.Script(nil))
	coord := newFailoverCoord(t, Config{Nodes: []string{proxy.URL() + "|" + urlB}})
	repA, repB := coord.shards[0].replicas[0], coord.shards[0].replicas[1]

	stmt, err := coord.Prepare(ctx, "SELECT ten, COUNT(*) FROM wisc GROUP BY ten", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Expire the sibling's half behind the coordinator's back, so the
	// failover must re-prepare there.
	idB, ok := stmt.id(repB)
	if !ok {
		t.Fatal("sibling holds no statement id after Prepare")
	}
	if err := (&server.Client{Base: urlB}).CloseStmt(ctx, idB); err != nil {
		t.Fatal(err)
	}
	// Prefer the proxied replica, then kill it: live connections reset, new
	// ones refused.
	prefer(repA, repB)
	proxy.Sever()
	proxy.SetDown(true)

	rows, err := stmt.Exec(ctx, nil, nil)
	if err != nil {
		t.Fatalf("exec with the preferred replica dead: %v", err)
	}
	got, _ := drain(t, rows)
	if len(got) != 10 {
		t.Errorf("failed-over exec returned %d groups, want 10", len(got))
	}
	if n := coord.failovers.Load(); n != 1 {
		t.Errorf("failovers = %d, want 1", n)
	}
	if n := coord.repreparations.Load(); n != 1 {
		t.Errorf("repreparations = %d, want 1", n)
	}
	if n := coord.failures.Load(); n != 0 {
		t.Errorf("failures = %d, want 0", n)
	}

	// Both repair counters travel the HTTP front end's /stats.
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(front.Close)
	t.Cleanup(front.Client().CloseIdleConnections)
	resp, err := front.Client().Get(front.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Failovers != 1 || st.Repreparations != 1 {
		t.Errorf("/stats failovers=%d repreparations=%d, want 1/1", st.Failovers, st.Repreparations)
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
// sibling to fail over to; under RetryWholeQuery the whole scatter restarts
// once — mid-iteration, through Rows.Next — and the consumer never sees the
// death.
func TestRetryWholeQueryRestartsStreaming(t *testing.T) {
	ctx := context.Background()
	fake := flakyWorker(t, []string{"unique1"}, []string{"INT"},
		[][]any{{int64(1)}, {int64(2)}, {int64(3)}})
	coord := newFailoverCoord(t, Config{
		Nodes:           []string{fake.URL},
		Wire:            "ndjson",
		RetryWholeQuery: true,
	})
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
	coord := newFailoverCoord(t, Config{
		Nodes:           []string{fake.URL},
		Wire:            "ndjson",
		RetryWholeQuery: true,
	})
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

// TestPostMergeFailureWithoutRetryIsVisible: the same death without
// RetryWholeQuery keeps first-error-wins — the client sees exactly one
// failure and the counter records it.
func TestPostMergeFailureWithoutRetryIsVisible(t *testing.T) {
	ctx := context.Background()
	// Always dies after the header: no recovery on any attempt.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ndjsonWire)
		enc := server.NewStreamEncoder(w, ndjsonWire, []string{"INT"})
		enc.Header(&server.Header{Columns: []string{"ten"}, Types: []string{"INT"}, Threads: 1})
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	}))
	t.Cleanup(dead.Close)
	t.Cleanup(func() { dead.Client().CloseIdleConnections() })
	coord := newFailoverCoord(t, Config{Nodes: []string{dead.URL}, Wire: "ndjson"})
	if _, err := coord.Query(ctx, "SELECT ten, COUNT(*) FROM wisc GROUP BY ten", nil, nil); err == nil {
		t.Fatal("aggregate over a dying single replica succeeded")
	}
	if n := coord.failures.Load(); n != 1 {
		t.Errorf("failures = %d, want 1", n)
	}
	if n := coord.wholeQueryRetries.Load(); n != 0 {
		t.Errorf("wholeQueryRetries = %d, want 0 (RetryWholeQuery off)", n)
	}
}
