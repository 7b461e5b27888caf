package cluster

import (
	"testing"
	"time"
)

// fakeClock drives a breaker's cooloff deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newTestBreaker() (*breaker, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := newBreaker()
	b.now = clk.now
	return b, clk
}

// trip fails b breakerThreshold times in a row, which opens a closed breaker.
func trip(b *breaker) {
	for i := 0; i < breakerThreshold; i++ {
		b.failure()
	}
}

// TestBreakerOpensAtThreshold: consecutive failures open the breaker, and a
// success anywhere in the streak resets the count.
func TestBreakerOpensAtThreshold(t *testing.T) {
	b, _ := newTestBreaker()
	for i := 1; i < breakerThreshold; i++ {
		b.failure()
	}
	if !b.allow() || b.current() != breakerClosed {
		t.Fatalf("breaker opened below the threshold (state %v)", b.current())
	}
	b.success() // streak broken
	for i := 1; i < breakerThreshold; i++ {
		b.failure()
	}
	if b.current() != breakerClosed {
		t.Fatal("success did not reset the failure streak")
	}
	b.failure()
	if b.allow() || b.current() != breakerOpen {
		t.Fatalf("%d consecutive failures left the breaker %v", breakerThreshold, b.current())
	}
}

// TestBreakerHalfOpenProbe: after the cooloff the breaker half-opens; a
// failure during the probe re-opens it, a success closes it.
func TestBreakerHalfOpenProbe(t *testing.T) {
	b, clk := newTestBreaker()
	trip(b)
	if b.allow() {
		t.Fatal("open breaker admitted traffic before the cooloff")
	}
	clk.advance(breakerCooloff - time.Second)
	if b.allow() {
		t.Fatal("breaker half-opened before the cooloff elapsed")
	}
	clk.advance(time.Second)
	if !b.allow() || b.current() != breakerHalfOpen {
		t.Fatalf("cooloff elapsed but breaker is %v", b.current())
	}
	// Probe fails: straight back to open, with a fresh cooloff.
	b.failure()
	if b.allow() || b.current() != breakerOpen {
		t.Fatalf("half-open failure left the breaker %v", b.current())
	}
	clk.advance(breakerCooloff)
	if !b.allow() {
		t.Fatal("re-opened breaker never half-opened again")
	}
	// Probe succeeds: closed, streak cleared.
	b.success()
	if b.current() != breakerClosed {
		t.Fatalf("half-open success left the breaker %v", b.current())
	}
	b.failure()
	if b.current() != breakerClosed {
		t.Fatal("one failure re-opened a freshly closed breaker (streak not cleared)")
	}
}

// TestBreakerOpenFailuresRefreshCooloff: failures while open (the poll
// still probing a dead node) push the half-open horizon out — the breaker
// only probes after a quiet cooloff.
func TestBreakerOpenFailuresRefreshCooloff(t *testing.T) {
	b, clk := newTestBreaker()
	trip(b)
	clk.advance(breakerCooloff - time.Second)
	b.failure() // still dead at the next probe
	clk.advance(breakerCooloff - time.Second)
	if b.allow() {
		t.Fatalf("breaker half-opened %v after its latest failure (cooloff is %v)", breakerCooloff-time.Second, breakerCooloff)
	}
	clk.advance(time.Second)
	if !b.allow() {
		t.Fatal("breaker never half-opened after a full quiet cooloff")
	}
}

// TestBreakerSuccessClosesFromOpen: a success while open (a poll probe
// answering during the cooloff) closes the breaker immediately — the
// rejoin path does not wait out the cooloff.
func TestBreakerSuccessClosesFromOpen(t *testing.T) {
	b, _ := newTestBreaker()
	trip(b)
	if b.allow() {
		t.Fatal("breaker open")
	}
	b.success()
	if !b.allow() || b.current() != breakerClosed {
		t.Fatalf("success while open left the breaker %v", b.current())
	}
}

// TestBreakerStateNames pins the strings surfaced on /stats and in dbs3
// coord's start-up warnings.
func TestBreakerStateNames(t *testing.T) {
	for state, want := range map[breakerState]string{
		breakerClosed:   "closed",
		breakerHalfOpen: "half-open",
		breakerOpen:     "open",
	} {
		if got := state.String(); got != want {
			t.Errorf("state %d named %q, want %q", int(state), got, want)
		}
	}
}
