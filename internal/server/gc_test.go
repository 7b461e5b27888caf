package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dbs3"
)

// fakeClock is a deterministic time source for the statement-GC tests: the
// sweep logic runs against advanced time instead of sleeps.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newGCServer serves a small Wisconsin database with the given statement TTL
// and a controllable clock.
func newGCServer(t *testing.T, ttl time.Duration) (*Client, *fakeClock) {
	t.Helper()
	db := dbs3.New()
	if err := db.CreateWisconsin("wisc", 500, 4, "unique2", 42); err != nil {
		t.Fatal(err)
	}
	m := db.Manager(dbs3.ManagerConfig{Budget: testBudget})
	srv := New(db, m, Config{StmtTTL: ttl})
	clock := &fakeClock{t: time.Unix(1_000_000, 0)}
	srv.stmts.now = clock.now
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(func() { ts.Client().CloseIdleConnections() })
	return &Client{Base: ts.URL, HTTP: ts.Client()}, clock
}

// TestStatementGCExpiresIdle: a statement idle beyond the TTL is reclaimed —
// its id is gone, the registry count drops, and the expiry is visible on
// /stats — while a statement kept alive by touches survives the same sweep.
func TestStatementGCExpiresIdle(t *testing.T) {
	client, clock := newGCServer(t, time.Minute)
	ctx := context.Background()

	idle, err := client.Prepare(ctx, "SELECT unique1 FROM wisc WHERE unique2 < 10", nil)
	if err != nil {
		t.Fatal(err)
	}
	live, err := client.Prepare(ctx, "SELECT unique2 FROM wisc WHERE unique1 < 10", nil)
	if err != nil {
		t.Fatal(err)
	}

	// Touch the live statement at half the TTL; the idle one sleeps on.
	clock.advance(40 * time.Second)
	if stream, err := client.Exec(ctx, live.ID, nil, nil); err != nil {
		t.Fatal(err)
	} else {
		for stream.Next() {
		}
		stream.Close()
	}

	// Past the idle statement's TTL, short of the live one's.
	clock.advance(40 * time.Second)
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Statements != 1 {
		t.Errorf("open statements after sweep = %d, want 1 (the touched one)", st.Statements)
	}
	if st.StatementsExpired != 1 {
		t.Errorf("statementsExpired = %d, want 1", st.StatementsExpired)
	}
	if _, err := client.Exec(ctx, idle.ID, nil, nil); err == nil {
		t.Error("exec of an expired statement succeeded, want 404")
	}
	if stream, err := client.Exec(ctx, live.ID, nil, nil); err != nil {
		t.Errorf("touched statement expired with the idle one: %v", err)
	} else {
		for stream.Next() {
		}
		stream.Close()
	}
}

// TestStatementGCFreesCapForNewClients is the ROADMAP scenario: abandoned
// statements filling the registry to its cap no longer lock new clients out
// once their TTL passes — prepare sweeps before it checks the cap.
func TestStatementGCFreesCapForNewClients(t *testing.T) {
	db := dbs3.New()
	if err := db.CreateWisconsin("wisc", 500, 4, "unique2", 42); err != nil {
		t.Fatal(err)
	}
	m := db.Manager(dbs3.ManagerConfig{Budget: testBudget})
	srv := New(db, m, Config{StmtTTL: time.Minute, MaxStatements: 2})
	clock := &fakeClock{t: time.Unix(1_000_000, 0)}
	srv.stmts.now = clock.now
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(func() { ts.Client().CloseIdleConnections() })
	client := &Client{Base: ts.URL, HTTP: ts.Client()}
	ctx := context.Background()

	for _, sql := range []string{
		"SELECT unique1 FROM wisc WHERE unique2 < 10",
		"SELECT unique2 FROM wisc WHERE unique1 < 10",
	} {
		if _, err := client.Prepare(ctx, sql, nil); err != nil {
			t.Fatal(err)
		}
	}
	// At cap: a fresh prepare is shed with 429.
	resp, cancel, err := client.post(ctx, "/prepare", QueryRequest{SQL: "SELECT ten FROM wisc"})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	cancel()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("prepare at cap = %d, want 429", resp.StatusCode)
	}
	// The abandoned statements age out; the same prepare now fits.
	clock.advance(2 * time.Minute)
	if _, err := client.Prepare(ctx, "SELECT ten FROM wisc", nil); err != nil {
		t.Fatalf("prepare after TTL sweep still rejected: %v", err)
	}
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Statements != 1 || st.StatementsExpired != 2 {
		t.Errorf("statements=%d expired=%d, want 1/2", st.Statements, st.StatementsExpired)
	}
}

// TestStatementGCDisabled: a negative TTL turns expiry off entirely.
func TestStatementGCDisabled(t *testing.T) {
	client, clock := newGCServer(t, -1)
	ctx := context.Background()
	prep, err := client.Prepare(ctx, "SELECT unique1 FROM wisc WHERE unique2 < 10", nil)
	if err != nil {
		t.Fatal(err)
	}
	clock.advance(1000 * time.Hour)
	if stream, err := client.Exec(ctx, prep.ID, nil, nil); err != nil {
		t.Errorf("statement expired with expiry disabled: %v", err)
	} else {
		for stream.Next() {
		}
		stream.Close()
	}
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Statements != 1 || st.StatementsExpired != 0 {
		t.Errorf("statements=%d expired=%d, want 1/0", st.Statements, st.StatementsExpired)
	}
}

// TestNoStatementIsTyped: a missing statement is recognised by type on both
// sides of the wire — the registry's error wraps ErrNoStatement, and the 404
// it becomes matches ErrNoStatement again in the client, which is what the
// cluster coordinator's re-prepare keys on. Other client errors do not.
func TestNoStatementIsTyped(t *testing.T) {
	client, _ := newGCServer(t, time.Minute)
	ctx := context.Background()
	_, err := client.Exec(ctx, "s404", nil, nil)
	if !errors.Is(err, ErrNoStatement) {
		t.Errorf("exec of an unknown id: %v, want ErrNoStatement", err)
	}
	if err := client.CloseStmt(ctx, "s404"); !errors.Is(err, ErrNoStatement) {
		t.Errorf("close of an unknown id: %v, want ErrNoStatement", err)
	}
	if _, err := client.Query(ctx, "SELECT nope FROM wisc", nil, nil); err == nil || errors.Is(err, ErrNoStatement) {
		t.Errorf("a 400 must not match ErrNoStatement: %v", err)
	}
}
