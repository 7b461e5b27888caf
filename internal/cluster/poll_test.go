package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestCloseCancelsInFlightPoll pins the poller's lifecycle contract: the
// background /stats poll runs under the coordinator's lifecycle context,
// so Close aborts a poll round blocked on an unresponsive worker instead
// of waiting out the request timeout (or, as before this contract
// existed, forever — the poll used context.Background()).
func TestCloseCancelsInFlightPoll(t *testing.T) {
	arrived := make(chan struct{}, 16)
	cancelled := make(chan struct{}, 16)
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived <- struct{}{}
		// Hold the poll open until its request context dies. A worker
		// that never answers is exactly the failure mode Close must
		// not inherit.
		<-r.Context().Done()
		cancelled <- struct{}{}
	}))
	defer worker.Close()

	coord, err := New(context.Background(), Config{
		Nodes:        []string{worker.URL},
		PollInterval: 5 * time.Millisecond,
		Timeout:      time.Minute, // Close, not the request timeout, must end the poll
	})
	if err != nil {
		t.Fatal(err)
	}

	select {
	case <-arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("poller never reached the worker")
	}

	done := make(chan struct{})
	go func() {
		coord.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not cancel the in-flight poll")
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("worker handler never saw the poll's context cancelled")
	}
}

// TestCallerContextStopsPoller pins the other half of the lifecycle:
// cancelling the context handed to New stops polling without Close.
func TestCallerContextStopsPoller(t *testing.T) {
	polls := make(chan struct{}, 64)
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case polls <- struct{}{}:
		default:
		}
		w.Write([]byte(`{}`))
	}))
	defer worker.Close()

	ctx, cancel := context.WithCancel(context.Background())
	coord, err := New(ctx, Config{
		Nodes:        []string{worker.URL},
		PollInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	select {
	case <-polls:
	case <-time.After(5 * time.Second):
		t.Fatal("poller never polled")
	}
	cancel()
	<-coord.pollDone // loop exits on ctx.Done, not only on Close
	// Close after caller-cancel must not hang or panic.
	coord.Close()
}
