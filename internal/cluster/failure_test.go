package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"dbs3"
	"dbs3/internal/faultinject"
	"dbs3/internal/server"
)

// failureCluster is a cluster whose httptest servers stay addressable, so a
// test can kill a worker and ask the survivors for their ledgers. All traffic
// runs over one dedicated http.Client, so the goroutine-leak check can
// distinguish leaked readers from idle keep-alive connections.
type failureCluster struct {
	coord *Coordinator
	ts    []*httptest.Server
	urls  []string // the workers themselves, not what may front them
	httpc *http.Client
}

// newFailureCluster builds workers with a wide Wisconsin relation — a full
// scan streams megabytes per node. The coordinator reaches node 1 through a
// fault-injection proxy playing node1Faults, one fault per connection it
// opens there (nil forwards everything untouched).
func newFailureCluster(t *testing.T, node1Faults faultinject.Script) *failureCluster {
	t.Helper()
	fc := &failureCluster{httpc: &http.Client{}}
	t.Cleanup(fc.httpc.CloseIdleConnections)
	for i := 0; i < testShards; i++ {
		db := dbs3.New()
		if err := db.CreateWisconsin("wisc", 30000, 4, "unique2", 42); err != nil {
			t.Fatal(err)
		}
		if err := db.ShardRelation("wisc", "unique2", i, testShards); err != nil {
			t.Fatal(err)
		}
		m := db.Manager(dbs3.ManagerConfig{Budget: testBudget})
		ts := httptest.NewServer(server.New(db, m, server.Config{}))
		t.Cleanup(ts.Close)
		t.Cleanup(func() { ts.Client().CloseIdleConnections() })
		fc.ts = append(fc.ts, ts)
		fc.urls = append(fc.urls, ts.URL)
	}
	nodes := append([]string(nil), fc.urls...)
	nodes[1] = newChaosProxy(t, fc.urls[1], node1Faults).URL()
	coord, err := New(context.Background(), Config{Nodes: nodes, HTTP: fc.httpc, PollInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	fc.coord = coord
	return fc
}

// waitThreadsDrained polls a worker's /stats until its thread ledger is
// empty — the proof that an aborted subquery returned its reservation.
func (fc *failureCluster) waitThreadsDrained(t *testing.T, url string) {
	t.Helper()
	client := &server.Client{Base: url, HTTP: fc.httpc}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := client.Stats(context.Background())
		if err == nil && st.ThreadsInFlight == 0 && st.Active == 0 {
			return
		}
		if time.Now().After(deadline) {
			if err != nil {
				t.Fatalf("worker %s unreachable while waiting for drain: %v", url, err)
			}
			t.Fatalf("worker %s still holds %d threads (%d active queries) after node failure", url, st.ThreadsInFlight, st.Active)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestNodeDeathMidStream is the partial-failure contract: one worker's
// connection dying while a scatter is streaming surfaces exactly one error
// naming a node, cancels the sibling streams so every worker's threads
// return to its budget, and leaks no coordinator goroutines.
func TestNodeDeathMidStream(t *testing.T) {
	// Node 1's stream is reset 64 KiB in: past the header (the scatter
	// opens) and a few hundred of its 10 000 rows, however fast anyone
	// reads — the death is mid-stream by byte count, not by timing.
	fc := newFailureCluster(t, faultinject.Script{{Kind: faultinject.Reset, After: 64 << 10}})
	before := runtime.NumGoroutine()
	rows, err := fc.coord.Query(context.Background(), "SELECT * FROM wisc", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	err = rows.Err()
	if err == nil {
		t.Fatal("scatter completed despite a dead node")
	}
	if !strings.Contains(err.Error(), "cluster: node ") {
		t.Errorf("failure error does not name the node: %v", err)
	}
	rows.Close()

	// Every worker — the killed one included — returns its threads.
	for _, url := range fc.urls {
		fc.waitThreadsDrained(t, url)
	}
	if st := fc.coord.Stats(); st.Failures != 1 {
		t.Errorf("coordinator failures = %d, want 1 (one error per query, not per node)", st.Failures)
	}

	// The fan-in machinery fully unwinds: once idle keep-alive connections
	// are discounted, no reader goroutines survive the failed scatter.
	deadline := time.Now().Add(5 * time.Second)
	for {
		fc.httpc.CloseIdleConnections()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before scatter, %d after failure cleanup", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDeadNodeFailsQueryAtOpen: a node that is down before the query starts
// fails the fan-out at the header barrier — one clean error, nothing half
// streamed, surviving workers drained.
func TestDeadNodeFailsQueryAtOpen(t *testing.T) {
	fc := newFailureCluster(t, nil)
	fc.ts[2].Close()
	_, err := fc.coord.Query(context.Background(), "SELECT * FROM wisc WHERE unique1 < 100", nil, nil)
	if err == nil {
		t.Fatal("scatter opened with a dead node")
	}
	if !strings.Contains(err.Error(), "cluster: node ") {
		t.Errorf("open-phase error does not name the node: %v", err)
	}
	for _, url := range fc.urls[:2] {
		fc.waitThreadsDrained(t, url)
	}
	if st := fc.coord.Stats(); st.Failures != 1 {
		t.Errorf("coordinator failures = %d, want 1", st.Failures)
	}
}

// TestCloseMidStreamCancelsWorkers: the consumer abandoning a healthy
// scatter is the same cleanup path — Close cancels every worker request and
// the workers' budgets refill.
func TestCloseMidStreamCancelsWorkers(t *testing.T) {
	fc := newFailureCluster(t, nil)
	rows, err := fc.coord.Query(context.Background(), "SELECT * FROM wisc", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5 && rows.Next(); i++ {
	}
	rows.Close()
	for _, url := range fc.urls {
		fc.waitThreadsDrained(t, url)
	}
}
