package cluster

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"dbs3"
	"dbs3/internal/server"
)

// TestStackedCoordinators: a coordinator's front end is a serve node's, so a
// coordinator can stand where a worker does. One coordinator over two
// coordinators over four hash shards answers unions, joins and merged
// aggregates (partials merged twice on the way up) exactly as a single node
// holding the union relation does; a prepared statement lives in three
// registries at once and leaves all of them on close; and every engine's
// thread ledger is back to zero afterwards.
func TestStackedCoordinators(t *testing.T) {
	const leaves, token = 4, "stacked-secret"
	ctx := context.Background()
	serve := func(h *server.Server) string {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		t.Cleanup(ts.Client().CloseIdleConnections)
		return ts.URL
	}
	coordinate := func(nodes ...string) *Coordinator {
		c, err := New(ctx, Config{Nodes: nodes, Token: token, PollInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}

	var leafURLs []string
	for i := 0; i < leaves; i++ {
		db := dbs3.New()
		populate(t, db)
		for rel, col := range map[string]string{"wisc": "unique2", "A": "k", "B": "k", "Br": "k"} {
			if err := db.ShardRelation(rel, col, i, leaves); err != nil {
				t.Fatal(err)
			}
		}
		m := db.Manager(dbs3.ManagerConfig{Budget: testBudget})
		leafURLs = append(leafURLs, serve(server.New(db, m, server.Config{AuthToken: token})))
	}
	var midURLs []string
	for i := 0; i < leaves; i += 2 {
		mid := coordinate(leafURLs[i], leafURLs[i+1])
		midURLs = append(midURLs, serve(mid.Handler().(*server.Server)))
	}
	top := coordinate(midURLs...)
	client := &server.Client{Base: serve(top.Handler().(*server.Server)), Token: token, Columnar: true}
	ref := dbs3.New()
	populate(t, ref)

	collect := func(s *server.RowStream, err error) [][]any {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var out [][]any
		for s.Next() {
			out = append(out, s.Row())
		}
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	same := func(sql string, got [][]any, args ...any) {
		t.Helper()
		want, err := ref.QueryAllContext(context.Background(), sql, nil, args...)
		if err != nil {
			t.Fatal(err)
		}
		gotC, wantC := canon(got), canon(want.Data)
		if len(gotC) != len(wantC) {
			t.Fatalf("%s: %d rows through two levels, %d on one node", sql, len(gotC), len(wantC))
		}
		for i := range gotC {
			if gotC[i] != wantC[i] {
				t.Fatalf("%s: row multisets diverge at %d: %s vs %s", sql, i, gotC[i], wantC[i])
			}
		}
	}
	for i, sql := range []string{
		"SELECT unique1, stringu1 FROM wisc WHERE unique2 < 300",
		"SELECT * FROM A JOIN B ON A.k = B.k",
		"SELECT ten, COUNT(*) FROM wisc GROUP BY ten",
		"SELECT two, four, MAX(unique1) FROM wisc GROUP BY two, four",
	} {
		s, err := client.Query(ctx, sql, nil, nil)
		same(sql, collect(s, err))
		if i > 0 {
			continue
		}
		// The union's footer nests two levels: each middle coordinator's
		// record holds its two leaves' records, and the top totals are the
		// leaves' sums.
		top := s.Footer()
		if top == nil || len(top.Nodes) != 2 {
			t.Fatalf("%s: top footer %+v, want 2 nodes", sql, top)
		}
		var threads int
		var rows int64
		for _, mid := range top.Nodes {
			if len(mid.Nodes) != 2 {
				t.Fatalf("%s: node %s has %d nodes, want 2", sql, mid.Node, len(mid.Nodes))
			}
			for _, leaf := range mid.Nodes {
				if len(leaf.Operators) == 0 {
					t.Errorf("%s: leaf %s reports no operators", sql, leaf.Node)
				}
				threads += leaf.Threads
				rows += leaf.RowCount
			}
		}
		if top.Threads != threads || top.RowCount != rows {
			t.Errorf("%s: top footer %d threads %d rows, the leaves sum to %d and %d", sql, top.Threads, top.RowCount, threads, rows)
		}
	}

	const prepared = "SELECT two, SUM(unique1) FROM wisc WHERE unique1 < ? GROUP BY two"
	pr, err := client.Prepare(ctx, prepared, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Params != 1 {
		t.Errorf("prepared params = %d, want 1", pr.Params)
	}
	for _, limit := range []int64{100, 1200} {
		same(prepared, collect(client.Exec(ctx, pr.ID, []any{limit}, nil)), limit)
	}
	// statements reads the "statements" field either kind of /stats carries.
	statements := func(url string) int {
		t.Helper()
		resp, err := (&server.Client{Base: url, Token: token}).Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Statements
	}
	for _, url := range append(midURLs, leafURLs...) {
		if n := statements(url); n != 1 {
			t.Errorf("%s holds %d statements while the prepared statement is open, want 1", url, n)
		}
	}
	if err := client.CloseStmt(ctx, pr.ID); err != nil {
		t.Fatal(err)
	}
	for _, url := range append(midURLs, leafURLs...) {
		if n := statements(url); n != 0 {
			t.Errorf("%s still holds %d statements after the close", url, n)
		}
	}

	if st := top.Stats(); st.Queries != 6 || st.Failures != 0 {
		t.Errorf("top coordinator ran %d scatters with %d failures, want 6 and 0", st.Queries, st.Failures)
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, url := range leafURLs {
		for {
			ls, err := (&server.Client{Base: url, Token: token}).Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if ls.ThreadsInFlight == 0 && ls.Active == 0 {
				if ls.Failed != 0 {
					t.Errorf("leaf %s failed %d queries", url, ls.Failed)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("leaf %s still holds %d threads", url, ls.ThreadsInFlight)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}
