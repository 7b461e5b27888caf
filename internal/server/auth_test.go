package server

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dbs3"
)

// newAuthServer serves a small Wisconsin database locked behind token.
func newAuthServer(t *testing.T, token string) string {
	t.Helper()
	db := dbs3.New()
	if err := db.CreateWisconsin("wisc", 200, 4, "unique2", 42); err != nil {
		t.Fatal(err)
	}
	m := db.Manager(dbs3.ManagerConfig{Budget: testBudget})
	ts := httptest.NewServer(New(db, m, Config{AuthToken: token}))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { ts.Client().CloseIdleConnections() })
	return ts.URL
}

// TestAuthDisabledWhenTokenEmpty: no configured token means no auth — the
// pre-cluster behavior is unchanged.
func TestAuthDisabledWhenTokenEmpty(t *testing.T) {
	url := newAuthServer(t, "")
	if _, err := (&Client{Base: url}).Stats(context.Background()); err != nil {
		t.Fatalf("tokenless server rejected a bare client: %v", err)
	}
}

// TestClientHeaderTimeout: a server that accepts but never responds trips
// the header-phase timeout instead of hanging the caller forever.
func TestClientHeaderTimeout(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			// Hold the connection open, never write a response.
			defer conn.Close()
		}
	}()
	client := &Client{Base: "http://" + l.Addr().String(), Timeout: 100 * time.Millisecond}
	start := time.Now()
	_, err = client.Stats(context.Background())
	if err == nil {
		t.Fatal("stats against a black-hole server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v, want ~100ms", elapsed)
	}
}

// TestClientTimeoutSparesLongStreams: the timeout bounds only the header
// phase — a result body that streams past the deadline is not cut off.
func TestClientTimeoutSparesLongStreams(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", contentTypeNDJSON)
		w.WriteHeader(http.StatusOK)
		fl, _ := w.(http.Flusher)
		w.Write([]byte(`{"header":{"columns":["a"],"types":["INT"],"threads":1}}` + "\n"))
		if fl != nil {
			fl.Flush()
		}
		// Stream rows slowly across several timeout windows.
		for i := 0; i < 5; i++ {
			time.Sleep(40 * time.Millisecond)
			w.Write([]byte(`{"rows":[[1]]}` + "\n"))
			if fl != nil {
				fl.Flush()
			}
		}
		w.Write([]byte(`{"done":{"rowCount":5,"threads":1}}` + "\n"))
	}))
	t.Cleanup(slow.Close)
	t.Cleanup(slow.Client().CloseIdleConnections)

	client := &Client{Base: slow.URL, HTTP: slow.Client(), Timeout: 60 * time.Millisecond}
	stream, err := client.Query(context.Background(), "irrelevant", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for stream.Next() {
		n++
	}
	if err := stream.Err(); err != nil {
		t.Fatalf("slow stream killed by the header timeout: %v", err)
	}
	if n != 5 {
		t.Errorf("streamed %d rows, want 5", n)
	}
}

// TestUtilizationOptionReachesScheduler: the wire Utilization field overlays
// onto the execution options — a loaded cluster's fan-out shows up in the
// worker's header as external load the scheduler accounted for.
func TestUtilizationOptionReachesScheduler(t *testing.T) {
	client, _ := newTestServer(t, 2000)
	ctx := context.Background()
	idle, err := client.Query(ctx, "SELECT * FROM wisc WHERE unique1 < 50", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	idleThreads := idle.Header().Threads
	for idle.Next() {
	}
	idle.Close()
	busy, err := client.Query(ctx, "SELECT * FROM wisc WHERE unique1 < 50", nil, &Options{Options: dbs3.Options{Utilization: 0.95}})
	if err != nil {
		t.Fatal(err)
	}
	busyThreads := busy.Header().Threads
	for busy.Next() {
	}
	busy.Close()
	if busyThreads > idleThreads {
		t.Errorf("threads under 0.95 remote load = %d, idle = %d; external load must not grow parallelism", busyThreads, idleThreads)
	}
	if idleThreads > 1 && busyThreads >= idleThreads {
		t.Errorf("scheduler ignored Utilization: idle=%d busy=%d", idleThreads, busyThreads)
	}
}
