package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

// deadAddr returns an address with no listener: every dial fails with a
// transient connect error, driving the full retry ladder.
func deadAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// retryClient builds a client against a dead address with a fake sleeper
// recording the backoff schedule and a deterministic jitter draw.
func retryClient(t *testing.T, retries int, jitter float64, sleeps *[]time.Duration) *Client {
	t.Helper()
	return &Client{
		Base:    "http://" + deadAddr(t),
		Retries: retries,
		sleep: func(_ context.Context, d time.Duration) error {
			*sleeps = append(*sleeps, d)
			return nil
		},
		jitter: func() float64 { return jitter },
	}
}

// TestRetryBackoffDoublingEnvelope: with the jitter draw pinned at 1.0 the
// schedule is exactly the doubling envelope — base, 2×, 4×, 8× — one sleep
// per retry.
func TestRetryBackoffDoublingEnvelope(t *testing.T) {
	var sleeps []time.Duration
	c := retryClient(t, 4, 1.0, &sleeps)
	if _, err := c.Stats(context.Background()); err == nil {
		t.Fatal("stats against a dead address succeeded")
	}
	want := []time.Duration{retryBackoff, 2 * retryBackoff, 4 * retryBackoff, 8 * retryBackoff}
	if len(sleeps) != len(want) {
		t.Fatalf("slept %d times (%v), want %d", len(sleeps), sleeps, len(want))
	}
	for i := range want {
		if sleeps[i] != want[i] {
			t.Errorf("retry %d slept %v, want envelope %v", i, sleeps[i], want[i])
		}
	}
}

// TestRetryBackoffFullJitter: the jitter draw scales every sleep inside the
// envelope — two clients with different draws never sleep in lockstep,
// which is the whole thundering-herd point.
func TestRetryBackoffFullJitter(t *testing.T) {
	var half, tenth []time.Duration
	ch := retryClient(t, 3, 0.5, &half)
	ct := retryClient(t, 3, 0.1, &tenth)
	ch.Stats(context.Background())
	ct.Stats(context.Background())
	wantHalf := []time.Duration{retryBackoff / 2, retryBackoff, 2 * retryBackoff}
	wantTenth := []time.Duration{retryBackoff / 10, 2 * retryBackoff / 10, 4 * retryBackoff / 10}
	for i := range wantHalf {
		if half[i] != wantHalf[i] {
			t.Errorf("jitter 0.5 retry %d slept %v, want %v", i, half[i], wantHalf[i])
		}
		if tenth[i] != wantTenth[i] {
			t.Errorf("jitter 0.1 retry %d slept %v, want %v", i, tenth[i], wantTenth[i])
		}
	}
}

// TestRetryBackoffBudgetCapsTotal: each sleep is clamped to the remaining
// budget and retries stop once it is spent, even with Retries to spare.
func TestRetryBackoffBudgetCapsTotal(t *testing.T) {
	var sleeps []time.Duration
	c := retryClient(t, 100, 1.0, &sleeps)
	if _, err := c.Stats(context.Background()); err == nil {
		t.Fatal("stats against a dead address succeeded")
	}
	// The doubling envelope while it fits, then whatever is left of the
	// budget; the budget is then spent, so the remaining retries are
	// forfeited.
	var want []time.Duration
	left := backoffBudget
	for e := retryBackoff; e < left; e *= 2 {
		want = append(want, e)
		left -= e
	}
	want = append(want, left)
	if len(sleeps) != len(want) {
		t.Fatalf("slept %d times (%v), want %d — budget did not cap the ladder", len(sleeps), sleeps, len(want))
	}
	var total time.Duration
	for i := range want {
		if sleeps[i] != want[i] {
			t.Errorf("retry %d slept %v, want %v", i, sleeps[i], want[i])
		}
		total += sleeps[i]
	}
	if total > backoffBudget {
		t.Errorf("total backoff %v exceeds the %v budget", total, backoffBudget)
	}
}

// TestRetryBackoffCancelAborts: a context cancelled during the backoff
// sleep abandons the ladder immediately.
func TestRetryBackoffCancelAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var sleeps []time.Duration
	c := retryClient(t, 10, 1.0, &sleeps)
	c.sleep = func(ctx context.Context, d time.Duration) error {
		sleeps = append(sleeps, d)
		cancel()
		return ctx.Err()
	}
	_, err := c.Stats(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled mid-backoff, got %v", err)
	}
	if len(sleeps) != 1 {
		t.Errorf("slept %d times after cancellation, want 1", len(sleeps))
	}
}

// TestRetryBackoffDefaultJitterInEnvelope: without seams, real sleeps stay
// within the envelope (smoke for the production rand path — the dead dial
// itself is fast, so two short real sleeps keep this test quick).
func TestRetryBackoffDefaultJitterInEnvelope(t *testing.T) {
	c := &Client{Base: "http://" + deadAddr(t), Retries: 2}
	start := time.Now()
	if _, err := c.Stats(context.Background()); err == nil {
		t.Fatal("stats against a dead address succeeded")
	}
	// Envelope total = retryBackoff + 2×retryBackoff; generous slack for
	// scheduler noise.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("2 jittered retries took %v", elapsed)
	}
}

// TestHeaderTimeoutIsTyped: a header-phase timeout surfaces as
// *TimeoutError — the classification the cluster breaker counts — while a
// plain connect error does not.
func TestHeaderTimeoutIsTyped(t *testing.T) {
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
			defer conn.Close() // hold open, never respond
		}
	}()
	c := &Client{Base: "http://" + l.Addr().String(), Timeout: 50 * time.Millisecond}
	_, err = c.Stats(context.Background())
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("black-hole server produced %T (%v), want *TimeoutError", err, err)
	}
	if te.Limit != 50*time.Millisecond || !te.Timeout() {
		t.Errorf("TimeoutError limit=%v timeout=%v, want 50ms/true", te.Limit, te.Timeout())
	}

	// A refused connection is a connect error, not a timeout.
	dead := &Client{Base: "http://" + deadAddr(t), Timeout: time.Second}
	_, err = dead.Stats(context.Background())
	if err == nil {
		t.Fatal("stats against a dead address succeeded")
	}
	if errors.As(err, &te) {
		t.Errorf("connect error classified as TimeoutError: %v", err)
	}
	var se *StatusError
	if errors.As(err, &se) {
		t.Errorf("connect error classified as StatusError: %v", err)
	}
}

// TestTimeoutErrorWrapsItsCause: a TimeoutError names its limit and its
// transport error, unwraps to that error for errors.Is, is found by
// errors.As through further wrapping, and reads as a timeout to a
// net.Error-style check.
func TestTimeoutErrorWrapsItsCause(t *testing.T) {
	cause := errors.New("transport closed")
	err := fmt.Errorf("query node 2: %w", &TimeoutError{Limit: 250 * time.Millisecond, Err: cause})
	if msg := err.Error(); !strings.Contains(msg, "250ms") || !strings.Contains(msg, cause.Error()) {
		t.Errorf("Error() = %q, want the limit and the cause", msg)
	}
	if !errors.Is(err, cause) {
		t.Errorf("errors.Is(%v, cause) = false: Unwrap lost the transport error", err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("errors.Is(%v, context.DeadlineExceeded) = true, want only the cause", err)
	}
	var te *TimeoutError
	if !errors.As(err, &te) || te.Limit != 250*time.Millisecond || te.Err != cause {
		t.Fatalf("errors.As found %+v, want the TimeoutError with its limit and cause", te)
	}
	var timeout interface{ Timeout() bool }
	if !errors.As(err, &timeout) || !timeout.Timeout() {
		t.Errorf("errors.As to a Timeout() bool: %v, want a timeout", timeout)
	}
}
