package cluster

import (
	"sync"
	"time"
)

// breakerState is a circuit breaker's position.
type breakerState int

const (
	// breakerClosed: the replica takes traffic normally.
	breakerClosed breakerState = iota
	// breakerHalfOpen: the cooloff elapsed; traffic is admitted again as a
	// probe — one success re-closes, one failure re-opens.
	breakerHalfOpen
	// breakerOpen: consecutive failures reached the threshold; the replica
	// receives no scatter traffic until the cooloff elapses.
	breakerOpen
)

const (
	// breakerThreshold opens a replica's breaker after this many consecutive
	// probe/query failures.
	breakerThreshold = 3
	// breakerCooloff is how long an open breaker withholds traffic before
	// half-opening to probe the replica again.
	breakerCooloff = 5 * time.Second
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "open"
	}
}

// breaker is a per-replica circuit breaker fed by replica.note with the
// outcome of every exchange, polls and query traffic alike. closed → open
// after breakerThreshold consecutive failures; open → half-open once
// breakerCooloff passes since the last failure; any success (a poll
// answering, a subquery completing) closes it from any state.
//
// Half-open deliberately tracks no single-trial token: replica ordering
// consults allow() for candidates it may never use, and a trial token
// claimed there would dangle. Admitting traffic until the first outcome is
// simpler and converges the same way — the first failure re-opens, the
// first success closes.
type breaker struct {
	now func() time.Time // test seam

	mu       sync.Mutex
	state    breakerState
	fails    int // consecutive failures while closed
	openedAt time.Time
}

func newBreaker() *breaker {
	return &breaker{now: time.Now}
}

// allow reports whether the replica may receive traffic, transitioning
// open → half-open when the cooloff has elapsed.
func (b *breaker) allow() bool {
	now := b.now()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerOpen && now.Sub(b.openedAt) >= breakerCooloff {
		b.state = breakerHalfOpen
	}
	return b.state != breakerOpen
}

// success closes the breaker from any state and clears the failure streak.
func (b *breaker) success() {
	b.mu.Lock()
	b.state = breakerClosed
	b.fails = 0
	b.mu.Unlock()
}

// failure records one probe or query failure. A half-open failure re-opens
// immediately; a failure while open refreshes the cooloff clock, so a
// replica that keeps failing probes stays dark.
func (b *breaker) failure() {
	now := b.now()
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		b.fails++
		if b.fails >= breakerThreshold {
			b.state = breakerOpen
			b.openedAt = now
		}
	case breakerHalfOpen, breakerOpen:
		b.state = breakerOpen
		b.openedAt = now
	}
}

// current returns the state without side effects (no open → half-open
// transition), for stats reporting.
func (b *breaker) current() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
