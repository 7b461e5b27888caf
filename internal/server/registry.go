package server

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// defaultStmtTTL is the idle lifetime of a server-side prepared statement
// when Config.StmtTTL is zero: long enough for any interactive pause, short
// enough that abandoned clients cannot pin the capped registry forever.
const defaultStmtTTL = 15 * time.Minute

// defaultMaxStatements caps the registry when Config.MaxStatements is zero.
const defaultMaxStatements = 1024

// registry is the front end's id → prepared-handle table: capped, so a
// client leak cannot grow server memory without bound, and swept on an idle
// TTL, so abandoned clients cannot hold it at the cap. Every statement that
// leaves it — closed, expired, or turned away at the cap — is Closed on its
// backend, outside the lock (a coordinator's Close is network I/O).
type registry struct {
	max int
	ttl time.Duration // <= 0 disables expiry
	// now is the clock, a test seam for the TTL sweep.
	now func() time.Time

	mu     sync.Mutex
	stmts  map[string]*stmtEntry
	nextID int64
	// expired counts statements removed on the idle TTL (lifetime).
	expired int64
}

// stmtEntry is one registered statement.
type stmtEntry struct {
	stmt Prepared
	info PrepareResponse
	// lastUsed is the last prepare/inspect/exec time, guarded by registry.mu.
	lastUsed time.Time
}

func newRegistry(max int, ttl time.Duration) *registry {
	if max <= 0 {
		max = defaultMaxStatements
	}
	if ttl == 0 {
		ttl = defaultStmtTTL
	}
	return &registry{max: max, ttl: ttl, now: time.Now, stmts: make(map[string]*stmtEntry)}
}

// idle reports whether an entry has outlived the TTL.
func (g *registry) idle(e *stmtEntry, now time.Time) bool {
	return g.ttl > 0 && now.Sub(e.lastUsed) > g.ttl
}

// sweepLocked removes every idle statement and returns them for closing.
// O(open statements), bounded by max.
func (g *registry) sweepLocked(now time.Time) []*stmtEntry {
	var dead []*stmtEntry
	for id, e := range g.stmts {
		if g.idle(e, now) {
			delete(g.stmts, id)
			dead = append(dead, e)
		}
	}
	g.expired += int64(len(dead))
	return dead
}

func closeAll(ctx context.Context, entries []*stmtEntry) {
	for _, e := range entries {
		e.stmt.Close(ctx)
	}
}

// add registers stmt under a fresh id. Idle statements expire first:
// abandoned clients must not be the reason a live one is turned away. At
// the cap the statement is closed and the error is the client's 429.
func (g *registry) add(ctx context.Context, stmt Prepared) (PrepareResponse, error) {
	now, info := g.now(), stmt.Info()
	g.mu.Lock()
	dead := g.sweepLocked(now)
	full := len(g.stmts) >= g.max
	if !full {
		g.nextID++
		info.ID = fmt.Sprintf("s%d", g.nextID)
		g.stmts[info.ID] = &stmtEntry{stmt: stmt, info: info, lastUsed: now}
	}
	g.mu.Unlock()
	closeAll(ctx, dead)
	if full {
		stmt.Close(ctx)
		return PrepareResponse{}, fmt.Errorf("server: %d prepared statements open; close some", g.max)
	}
	return info, nil
}

// get resolves an id and touches its idle clock. A statement past its TTL
// is gone exactly as if it had never been prepared: ErrNoStatement.
func (g *registry) get(ctx context.Context, id string) (*stmtEntry, error) {
	now := g.now()
	g.mu.Lock()
	e, ok := g.stmts[id]
	expired := ok && g.idle(e, now)
	if expired {
		delete(g.stmts, id)
		g.expired++
	} else if ok {
		e.lastUsed = now
	}
	g.mu.Unlock()
	if expired {
		e.stmt.Close(ctx)
	}
	if !ok || expired {
		return nil, fmt.Errorf("%w %q", ErrNoStatement, id)
	}
	return e, nil
}

// remove closes and forgets a statement.
func (g *registry) remove(ctx context.Context, id string) error {
	g.mu.Lock()
	e, ok := g.stmts[id]
	delete(g.stmts, id)
	g.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w %q", ErrNoStatement, id)
	}
	e.stmt.Close(ctx)
	return nil
}

// counts sweeps and reports the open and lifetime-expired statements.
func (g *registry) counts(ctx context.Context) (open int, expired int64) {
	g.mu.Lock()
	dead := g.sweepLocked(g.now())
	open, expired = len(g.stmts), g.expired
	g.mu.Unlock()
	closeAll(ctx, dead)
	return open, expired
}
