package cluster

import (
	"context"
	"errors"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dbs3"
	"dbs3/internal/server"
)

// wedgedTimeout is the header timeout of the coordinators in these tests:
// how long a wedged replica holds up each exchange before it counts as a
// fault.
const wedgedTimeout = 100 * time.Millisecond

// wedged returns the URL of a replica that accepts connections and never
// answers: its process is alive, its listener is bound, and nothing comes
// back — the fault only the header timeout can see.
func wedged(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		l.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, conn := range conns {
			conn.Close()
		}
	})
	return "http://" + l.Addr().String()
}

// breakerFails reads a replica's consecutive-failure count.
func breakerFails(r *replica) int {
	r.brk.mu.Lock()
	defer r.brk.mu.Unlock()
	return r.brk.fails
}

// TestWedgedReplicaFailsOver: a first-choice replica that never answers
// times out, counts as a fault, and the subquery moves to its live sibling
// — the query returns the sibling's rows and nothing is client-visible.
func TestWedgedReplicaFailsOver(t *testing.T) {
	const sql = "SELECT unique1, stringu1 FROM wisc WHERE unique2 < 300"
	ctx := context.Background()
	live := newWorkerURL(t, 0, false)
	coord := newFailoverCoord(t, Config{Nodes: []string{wedged(t) + "|" + live}, Timeout: wedgedTimeout})
	stuck, sibling := coord.shards[0].replicas[0], coord.shards[0].replicas[1]
	prefer(stuck, sibling)

	ref := dbs3.New()
	populate(t, ref)
	want, err := ref.QueryAllContext(ctx, sql, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := coord.Query(ctx, sql, nil, nil)
	if err != nil {
		t.Fatalf("query with a wedged first choice and a live sibling: %v", err)
	}
	got, foot := drain(t, rows)
	if !slices.Equal(canon(got), canon(want.Data)) {
		t.Errorf("failover result has %d rows, differing from the reference's %d", len(got), len(want.Data))
	}
	if len(foot.Nodes) != 1 || foot.Nodes[0].Node != live {
		t.Errorf("footer nodes %+v, want the one shard served by %s", foot.Nodes, live)
	}
	if n := coord.failovers.Load(); n != 1 {
		t.Errorf("failovers = %d, want 1", n)
	}
	if n := coord.failures.Load(); n != 0 {
		t.Errorf("failures = %d, want 0 (the failover was transparent)", n)
	}
	if n := breakerFails(stuck); n != 1 {
		t.Errorf("wedged replica's breaker counts %d failures, want 1", n)
	}
	if n := breakerFails(sibling); n != 0 {
		t.Errorf("live sibling's breaker counts %d failures, want 0", n)
	}
}

// TestPollFeedsWedgedReplicaBreaker: a poll that times out on a wedged
// replica marks it not alive with the timeout as its error and counts a
// fault, so breakerThreshold polls open its breaker without any query
// traffic.
func TestPollFeedsWedgedReplicaBreaker(t *testing.T) {
	ctx := context.Background()
	coord := newFailoverCoord(t, Config{Nodes: []string{wedged(t)}, Timeout: wedgedTimeout})
	for i := 1; i <= breakerThreshold; i++ {
		coord.Poll(ctx)
		ns := coord.Stats().Nodes[0]
		if ns.Alive {
			t.Fatalf("poll %d: wedged replica reported alive", i)
		}
		if !strings.Contains(ns.Error, "no response header within "+wedgedTimeout.String()) {
			t.Errorf("poll %d: error %q does not name the header timeout", i, ns.Error)
		}
		wantBreaker := breakerClosed
		if i == breakerThreshold {
			wantBreaker = breakerOpen
		}
		if ns.Breaker != wantBreaker.String() {
			t.Fatalf("poll %d: breaker %s, want %s", i, ns.Breaker, wantBreaker)
		}
	}
}

// TestPrepareGetsPastWedgedReplica: describing a statement moves past a
// wedged first choice to its sibling. With no sibling, the prepare fails
// with the header timeout — which wraps context.Canceled, since the client
// enforces the timeout by cancelling the request, and is a fault all the
// same.
func TestPrepareGetsPastWedgedReplica(t *testing.T) {
	ctx := context.Background()
	const sql = "SELECT ten, COUNT(*) FROM wisc GROUP BY ten"
	live := newWorkerURL(t, 0, false)
	coord := newFailoverCoord(t, Config{Nodes: []string{wedged(t) + "|" + live}, Timeout: wedgedTimeout})
	stuck, sibling := coord.shards[0].replicas[0], coord.shards[0].replicas[1]
	prefer(stuck, sibling)
	stmt, err := coord.Prepare(ctx, sql, nil)
	if err != nil {
		t.Fatalf("prepare with a wedged first choice and a live sibling: %v", err)
	}
	if cols := stmt.Info().Columns; len(cols) != 2 || cols[0] != "ten" {
		t.Errorf("described columns %v, want ten and the count", cols)
	}
	if n := breakerFails(stuck); n != 1 {
		t.Errorf("wedged replica's breaker counts %d failures, want 1", n)
	}

	alone := newFailoverCoord(t, Config{Nodes: []string{wedged(t)}, Timeout: wedgedTimeout})
	_, err = alone.Prepare(ctx, sql, nil)
	var te *server.TimeoutError
	if !errors.As(err, &te) || te.Limit != wedgedTimeout {
		t.Fatalf("prepare on a lone wedged replica: %v, want a %v header timeout", err, wedgedTimeout)
	}
	if !errors.Is(err, context.Canceled) || !replicaFault(err) {
		t.Errorf("header timeout: wraps context.Canceled %v, fault %v; want both", errors.Is(err, context.Canceled), replicaFault(err))
	}
	if n := breakerFails(alone.shards[0].replicas[0]); n != 1 {
		t.Errorf("lone wedged replica's breaker counts %d failures, want 1", n)
	}
}
