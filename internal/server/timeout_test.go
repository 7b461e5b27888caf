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

// deadAddr returns an address with no listener: every dial to it is
// refused.
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
