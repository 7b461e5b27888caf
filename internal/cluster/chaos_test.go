package cluster

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"dbs3"
	"dbs3/internal/faultinject"
	"dbs3/internal/server"
)

// chaosSeed pins the fault schedule; the CI chaos job sets DBS3_CHAOS_LOG
// to capture the schedule this seed produced as a build artifact.
const chaosSeed = 20260807

// chaosQueries is the total mixed-query volume of the chaos phase.
const chaosQueries = 200

// chaosWorkers is the concurrency the queries run at.
const chaosWorkers = 4

// queryResult is one chaos query's outcome.
type queryResult struct {
	kind      string
	delivered int
	err       error
}

// scheduleLog opens the fault-schedule artifact when DBS3_CHAOS_LOG is set
// (the CI chaos job uploads it for post-mortem of a failed seed).
func scheduleLog(t *testing.T) *os.File {
	path := os.Getenv("DBS3_CHAOS_LOG")
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatalf("DBS3_CHAOS_LOG: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestChaosReplicatedCluster is the tier's acceptance stress: a 3-shard ×
// 2-replica in-process cluster runs 200 concurrent mixed queries while a
// seeded fault injector mangles one replica's connections and another
// replica flaps up and down. Invariants checked:
//
//   - every query that succeeds returns the exact correct row count (no
//     lost or duplicated shard after a failover or restart);
//   - transparent failovers happened (failovers > 0) and most queries
//     succeed despite the chaos;
//   - killing a replica and holding it down opens its breaker after the
//     configured threshold, traffic stops reaching it, and a revival probe
//     closes the breaker again;
//   - every worker's activeThreads returns to 0 — no thread of any node's
//     budget leaks to a query whose coordinator-side result died;
//   - no coordinator goroutine outlives its query.
func TestChaosReplicatedCluster(t *testing.T) {
	ctx := context.Background()
	// No keep-alive pooling: every subquery dials a fresh connection, so the
	// injector's per-connection schedule applies per request instead of a
	// handful of long-lived pooled streams absorbing it.
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

	// Six real workers: shard i is served by replicas A and B.
	workerURLs := make([][2]string, testShards)
	for i := 0; i < testShards; i++ {
		workerURLs[i] = [2]string{newWorkerURL(t, i, true), newWorkerURL(t, i, true)}
	}
	// Shard 1's B replica sits behind the seeded injector; shard 2's B
	// replica behind the flap proxy.
	seeded := faultinject.NewSeeded(chaosSeed, faultinject.Weights{
		Clean: 6, Refuse: 2, Latency: 2, Status500: 1, Reset: 1, Truncate: 1,
	}, 600, 20*time.Millisecond)
	chaosProxy, err := faultinject.New(trimScheme(workerURLs[1][1]), seeded, scheduleLog(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { chaosProxy.Close() })
	flapProxy, err := faultinject.New(trimScheme(workerURLs[2][1]), faultinject.Script(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { flapProxy.Close() })

	nodes := []string{
		workerURLs[0][0] + "|" + workerURLs[0][1],
		workerURLs[1][0] + "|" + chaosProxy.URL(),
		workerURLs[2][0] + "|" + flapProxy.URL(),
	}
	coord, err := New(ctx, Config{
		Nodes:        nodes,
		HTTP:         hc,
		PollInterval: -1, // the test drives Poll explicitly
	})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	t.Cleanup(func() {
		if !closed {
			coord.Close()
		}
	})

	// Expected row counts per query kind, from an unsharded reference.
	ref := dbs3.New()
	populate(t, ref)
	const (
		streamSQL = "SELECT unique1 FROM wisc WHERE unique2 < 200"
		aggSQL    = "SELECT ten, COUNT(*) FROM wisc GROUP BY ten"
		execSQL   = "SELECT two, COUNT(*) FROM wisc WHERE unique1 < ? GROUP BY two"
	)
	expect := map[string]int{}
	for kind, q := range map[string]struct {
		sql  string
		args []any
	}{
		"stream": {streamSQL, nil},
		"agg":    {aggSQL, nil},
		"exec":   {execSQL, []any{int64(600)}},
	} {
		res, err := ref.QueryAllContext(context.Background(), q.sql, nil, q.args...)
		if err != nil {
			t.Fatal(err)
		}
		expect[kind] = len(res.Data)
	}

	// Prepare while everything is up, and prime the load snapshots.
	pr, err := coord.Prepare(ctx, execSQL, nil)
	if err != nil {
		t.Fatal(err)
	}
	coord.Poll(ctx)

	// The leak baseline: everything long-lived (servers, proxies, the
	// coordinator) already exists.
	baseline := runtime.NumGoroutine()

	// Phase 1: concurrent mixed queries under seeded faults, with shard 2's
	// B replica flapping the whole time.
	flapStop := make(chan struct{})
	var flapper sync.WaitGroup
	flapper.Add(1)
	go func() {
		defer flapper.Done()
		for {
			select {
			case <-flapStop:
				return
			case <-time.After(30 * time.Millisecond):
			}
			flapProxy.Sever()
			flapProxy.SetDown(true)
			select {
			case <-flapStop:
				flapProxy.SetDown(false)
				return
			case <-time.After(30 * time.Millisecond):
			}
			flapProxy.SetDown(false)
		}
	}()

	results := make([]queryResult, chaosQueries)
	var wg sync.WaitGroup
	for w := 0; w < chaosWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < chaosQueries; i += chaosWorkers {
				var rows *dbs3.Rows
				var err error
				var kind string
				switch i % 3 {
				case 0:
					kind = "stream"
					rows, err = coord.Query(ctx, streamSQL, nil, nil)
				case 1:
					kind = "agg"
					rows, err = coord.Query(ctx, aggSQL, nil, nil)
				default:
					kind = "exec"
					rows, err = pr.Exec(ctx, []any{int64(600)}, nil)
				}
				res := queryResult{kind: kind}
				if err == nil {
					for rows.Next() {
						res.delivered++
					}
					err = rows.Err()
					rows.Close()
				}
				res.err = err
				results[i] = res
			}
		}(w)
	}
	wg.Wait()
	close(flapStop)
	flapper.Wait()

	// Every success is exact; failures under chaos are tolerated (a replica
	// dying after rows merged is allowed to surface) but must stay a small
	// minority — the failover and retry paths absorb the rest.
	failed := 0
	for i, res := range results {
		if res.err != nil {
			failed++
			continue
		}
		if res.delivered != expect[res.kind] {
			t.Errorf("query %d (%s) delivered %d rows, want %d", i, res.kind, res.delivered, expect[res.kind])
		}
	}
	if failed > chaosQueries/4 {
		t.Errorf("%d/%d chaos queries failed — failover is not absorbing faults", failed, chaosQueries)
	}
	if n := coord.failovers.Load(); n == 0 {
		t.Error("no failovers recorded across the chaos run")
	}
	t.Logf("chaos: %d/%d ok, failovers=%d wholeQueryRetries=%d failures=%d",
		chaosQueries-failed, chaosQueries, coord.failovers.Load(),
		coord.wholeQueryRetries.Load(), coord.failures.Load())

	// Phase 2: deterministic breaker lifecycle on the flapped replica.
	// Revive it and probe once so its breaker starts closed with a clean
	// failure streak.
	flapRep := coord.shards[2].replicas[1]
	coord.Poll(ctx)
	if st := flapRep.brk.current(); st != breakerClosed {
		t.Fatalf("flapped replica's breaker is %v after a successful probe, want closed", st)
	}
	// Kill it and let the poller count it out: threshold (3) consecutive
	// failed probes open the breaker.
	flapProxy.Sever()
	flapProxy.SetDown(true)
	for i := 0; i < breakerThreshold; i++ {
		coord.Poll(ctx)
	}
	if st := flapRep.brk.current(); st != breakerOpen {
		t.Fatalf("breaker is %v after %d failed probes, want open", st, breakerThreshold)
	}
	stats := coord.Stats()
	var flapStatus *NodeStatus
	for i := range stats.Nodes {
		if stats.Nodes[i].Node == flapProxy.URL() {
			flapStatus = &stats.Nodes[i]
		}
	}
	if flapStatus == nil || flapStatus.Breaker != "open" {
		t.Fatalf("Stats does not show the dead replica's breaker open: %+v", flapStatus)
	}
	// With the breaker open, queries route around the dead replica: no new
	// connection reaches its proxy.
	before := flapProxy.Conns()
	for i := 0; i < 20; i++ {
		rows, err := coord.Query(ctx, aggSQL, nil, nil)
		if err != nil {
			t.Fatalf("query %d with an open breaker: %v", i, err)
		}
		n := 0
		for rows.Next() {
			n++
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("query %d with an open breaker: %v", i, err)
		}
		rows.Close()
		if n != expect["agg"] {
			t.Fatalf("query %d delivered %d rows, want %d", i, n, expect["agg"])
		}
	}
	if got := flapProxy.Conns(); got != before {
		t.Errorf("dead replica received %d connections while its breaker was open", got-before)
	}
	// Revive: one successful probe closes the breaker and the replica
	// rejoins placement.
	flapProxy.SetDown(false)
	coord.Poll(ctx)
	if st := flapRep.brk.current(); st != breakerClosed {
		t.Errorf("breaker is %v after the replica revived, want closed", st)
	}

	// Drain: every worker's thread budget is whole again.
	for i, pair := range workerURLs {
		for j, url := range pair {
			probe := &server.Client{Base: url, HTTP: hc}
			if err := waitDrained(ctx, probe); err != nil {
				t.Errorf("worker %d%c: %v", i, 'A'+rune(j), err)
			}
		}
	}

	// Leak check: close the coordinator and the shared transport's idle
	// connections, then the goroutine count must fall back to the baseline.
	coord.Close()
	closed = true
	deadline := time.Now().Add(10 * time.Second)
	for {
		hc.CloseIdleConnections()
		if runtime.NumGoroutine() <= baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines: %d alive, baseline %d — a reader or stream outlived its query",
				runtime.NumGoroutine(), baseline)
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitDrained polls one worker's /stats until its thread budget is whole.
func waitDrained(ctx context.Context, probe *server.Client) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := probe.Stats(ctx)
		if err == nil && st.ThreadsInFlight == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("stats probe: %w", err)
			}
			return fmt.Errorf("activeThreads = %d after the cluster went idle, want 0", st.ThreadsInFlight)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
