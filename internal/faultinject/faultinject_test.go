package faultinject

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// bigBody is the backend payload — large enough that Reset/Truncate
// thresholds land mid-body.
var bigBody = bytes.Repeat([]byte("0123456789abcdef"), 4096) // 64 KiB

// newBackend serves bigBody on every request.
func newBackend(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(bigBody)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// get issues one request through the proxy on a fresh connection (no
// keep-alive), so each request maps 1:1 onto a proxy connection and the
// Script index is deterministic.
func get(p *Proxy) (int, []byte, error) {
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	defer client.CloseIdleConnections()
	resp, err := client.Get(p.URL() + "/")
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func newProxy(t *testing.T, target string, inj Injector, logw io.Writer) *Proxy {
	t.Helper()
	p, err := New(target, inj, logw)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// TestCleanForwarding: a connection with no fault passes bytes untouched in
// both directions.
func TestCleanForwarding(t *testing.T) {
	backend := newBackend(t)
	p := newProxy(t, backend.Listener.Addr().String(), Script(nil), nil)
	code, body, err := get(p)
	if err != nil {
		t.Fatal(err)
	}
	if code != 200 || !bytes.Equal(body, bigBody) {
		t.Fatalf("clean forward: code=%d len=%d, want 200 with %d bytes", code, len(body), len(bigBody))
	}
}

// TestRefuse: the connection dies before any response byte — a
// connect-phase failure from the client's point of view.
func TestRefuse(t *testing.T) {
	backend := newBackend(t)
	p := newProxy(t, backend.Listener.Addr().String(), Script{{Kind: Refuse}}, nil)
	if _, _, err := get(p); err == nil {
		t.Fatal("refused connection returned a response")
	}
	// The schedule moves on: the next connection is clean.
	if code, _, err := get(p); err != nil || code != 200 {
		t.Fatalf("connection after refuse: code=%d err=%v, want clean 200", code, err)
	}
}

// TestTruncate: the response ends with a clean FIN mid-body — the client
// sees a short body, not a full one.
func TestTruncate(t *testing.T) {
	backend := newBackend(t)
	p := newProxy(t, backend.Listener.Addr().String(), Script{{Kind: Truncate, After: 1000}}, nil)
	_, body, err := get(p)
	if err == nil && len(body) >= len(bigBody) {
		t.Fatalf("truncated response delivered %d bytes intact", len(body))
	}
	if len(body) > 1000 {
		t.Fatalf("truncation passed %d bytes, limit 1000 (headers included)", len(body))
	}
}

// TestReset: the client observes a hard error mid-read, not a clean EOF.
func TestReset(t *testing.T) {
	backend := newBackend(t)
	p := newProxy(t, backend.Listener.Addr().String(), Script{{Kind: Reset, After: 512}}, nil)
	_, _, err := get(p)
	if err == nil {
		t.Fatal("reset-mid-stream read completed without error")
	}
}

// TestLatency delays the response by at least the configured Delay.
func TestLatency(t *testing.T) {
	backend := newBackend(t)
	const delay = 80 * time.Millisecond
	p := newProxy(t, backend.Listener.Addr().String(), Script{{Kind: Latency, Delay: delay}}, nil)
	start := time.Now()
	code, _, err := get(p)
	if err != nil || code != 200 {
		t.Fatalf("latency fault broke the request: code=%d err=%v", code, err)
	}
	if elapsed := time.Since(start); elapsed < delay {
		t.Fatalf("response arrived in %v, latency fault promised >= %v", elapsed, delay)
	}
}

// TestStatus500: the canned error is a complete HTTP response the client
// parses as a 500 without the backend ever seeing the request.
func TestStatus500(t *testing.T) {
	hits := 0
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
	}))
	t.Cleanup(backend.Close)
	p := newProxy(t, backend.Listener.Addr().String(), Script{{Kind: Status500}}, nil)
	code, body, err := get(p)
	if err != nil {
		t.Fatal(err)
	}
	if code != 500 {
		t.Fatalf("injected status = %d, want 500", code)
	}
	if !strings.Contains(string(body), "faultinject") {
		t.Errorf("canned body = %q", body)
	}
	if hits != 0 {
		t.Errorf("backend saw %d requests through an injected 500", hits)
	}
}

// TestSetDown: while down every connection is refused regardless of the
// schedule; up again, traffic resumes — the flapping primitive.
func TestSetDown(t *testing.T) {
	backend := newBackend(t)
	p := newProxy(t, backend.Listener.Addr().String(), Script(nil), nil)
	p.SetDown(true)
	if _, _, err := get(p); err == nil {
		t.Fatal("down proxy served a request")
	}
	p.SetDown(false)
	if code, _, err := get(p); err != nil || code != 200 {
		t.Fatalf("revived proxy: code=%d err=%v", code, err)
	}
}

// TestSeededDeterminism: the schedule is a pure function of the seed.
func TestSeededDeterminism(t *testing.T) {
	w := Weights{Clean: 4, Refuse: 2, Reset: 2, Truncate: 2, Latency: 1, Status500: 1}
	a := NewSeeded(42, w, 4096, 10*time.Millisecond)
	b := NewSeeded(42, w, 4096, 10*time.Millisecond)
	c := NewSeeded(43, w, 4096, 10*time.Millisecond)
	var diverged bool
	for i := 0; i < 200; i++ {
		fa, fb, fc := a.Fault(i), b.Fault(i), c.Fault(i)
		if fa != fb {
			t.Fatalf("conn %d: same seed drew %v and %v", i, fa, fb)
		}
		if fa != fc {
			diverged = true
		}
	}
	if !diverged {
		t.Error("two different seeds drew 200 identical faults")
	}
}

// TestScheduleLog: every accept decision lands in the log, in connection
// order — the artifact the CI chaos job uploads.
func TestScheduleLog(t *testing.T) {
	backend := newBackend(t)
	var log bytes.Buffer
	p := newProxy(t, backend.Listener.Addr().String(), Script{{Kind: Refuse}, {Kind: None}}, &log)
	get(p)
	get(p)
	// Accept decisions are logged before the handler runs; both lines are
	// present once both responses resolved.
	for i, want := range []string{"conn 0: refuse", "conn 1: none"} {
		if !strings.Contains(log.String(), want) {
			t.Errorf("schedule log missing %q (line %d): %q", want, i, log.String())
		}
	}
	if p.Conns() != 2 {
		t.Errorf("Conns = %d, want 2", p.Conns())
	}
}

// TestSeverKillsLiveStreamButNotProxy: Sever resets an in-flight transfer
// while the proxy keeps serving new connections — the repeatable
// kill-mid-stream primitive.
func TestSeverKillsLiveStreamButNotProxy(t *testing.T) {
	// A backend that holds its response open indefinitely.
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(200)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		<-r.Context().Done()
	}))
	t.Cleanup(backend.Close)
	p := newProxy(t, backend.Listener.Addr().String(), Script(nil), nil)
	errc := make(chan error, 1)
	go func() {
		_, _, err := get(p)
		errc <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for p.Conns() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the proxy")
		}
		time.Sleep(5 * time.Millisecond)
	}
	p.Sever()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("severed stream completed cleanly")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client still blocked after Sever")
	}
	// The proxy itself survives Sever: it still accepts new connections.
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatalf("proxy refused a new connection after Sever: %v", err)
	}
	conn.Close()
	deadline = time.Now().Add(5 * time.Second)
	for p.Conns() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("Conns = %d after a post-Sever dial, want 2", p.Conns())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCloseSeversLiveConnections: Close returns even with a connection
// wedged mid-transfer.
func TestCloseSeversLiveConnections(t *testing.T) {
	// A backend that never finishes its response.
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(200)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		<-r.Context().Done()
	}))
	t.Cleanup(backend.Close)
	p, err := New(backend.Listener.Addr().String(), Script(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, _, err := get(p)
		errc <- err
	}()
	// Wait for the connection to establish, then tear the proxy down.
	deadline := time.Now().Add(5 * time.Second)
	for p.Conns() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the proxy")
		}
		time.Sleep(5 * time.Millisecond)
	}
	done := make(chan struct{})
	go func() {
		p.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a live connection")
	}
	select {
	case <-errc:
	case <-time.After(5 * time.Second):
		t.Fatal("severed client still blocked after Close")
	}
}

// TestCloseRacesAccept: Close must return while connections are still being
// accepted and dialled. The backend accepts and then says nothing, so a
// forwarded connection that Close does not reach stays wedged in its handler
// and Close's wait for the handlers never ends — which is what happened to a
// connection that was accepted (or whose upstream was dialled) just before
// Close snapshotted the live set and registered just after. Run with
// -count=50 -cpu 1,2 to give the race room.
func TestCloseRacesAccept(t *testing.T) {
	backend, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu   sync.Mutex
		held []net.Conn
	)
	hold := func(c net.Conn) {
		mu.Lock()
		held = append(held, c)
		mu.Unlock()
	}
	go func() {
		for {
			c, err := backend.Accept()
			if err != nil {
				return
			}
			hold(c)
		}
	}()
	t.Cleanup(func() {
		backend.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	})

	for round := 0; round < 10; round++ {
		p, err := New(backend.Addr().String(), Script(nil), nil)
		if err != nil {
			t.Fatal(err)
		}
		var dialers sync.WaitGroup
		for d := 0; d < 4; d++ {
			dialers.Add(1)
			go func() {
				defer dialers.Done()
				for i := 0; i < 8; i++ {
					c, err := net.Dial("tcp", p.Addr())
					if err != nil {
						return // the listener is gone
					}
					hold(c)
				}
			}()
		}
		deadline := time.Now().Add(5 * time.Second)
		for p.Conns() < 4 {
			if time.Now().After(deadline) {
				t.Fatal("no connection reached the proxy")
			}
			time.Sleep(100 * time.Microsecond)
		}
		closed := make(chan struct{})
		go func() {
			p.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: Close hung behind a connection it never closed", round)
		}
		dialers.Wait()
	}
}
