package server

import (
	"context"
	"errors"
	"net/http"

	"dbs3"
	dbruntime "dbs3/internal/runtime"
)

// local is the Backend over one dbs3.Database and the QueryManager installed
// on it: every client shares the manager's thread budget.
type local struct {
	db      *dbs3.Database
	manager *dbruntime.Manager
	// opts seeds every request's execution options.
	opts dbs3.Options
}

// Query prepares through the plan cache, which makes repeated SQL cheap.
func (b *local) Query(ctx context.Context, sql string, args []any, wire *Options) (Result, error) {
	stmt, err := b.prepare(sql, Overlay(b.opts, wire))
	if err != nil {
		return nil, err
	}
	return stmt.Exec(ctx, args, nil)
}

func (b *local) Prepare(_ context.Context, sql string, wire *Options) (Prepared, error) {
	return b.prepare(sql, Overlay(b.opts, wire))
}

func (b *local) prepare(sql string, opt dbs3.Options) (*localStmt, error) {
	stmt, err := b.db.Prepare(sql, &opt)
	if err != nil {
		return nil, err
	}
	return &localStmt{b: b, stmt: stmt, opt: opt}, nil
}

// ErrorStatus: a full admission queue is load shedding (503), a closed
// manager means shutdown (503), everything else from prepare/bind is the
// client's statement (400).
func (b *local) ErrorStatus(err error) int {
	if errors.Is(err, dbruntime.ErrQueueFull) || errors.Is(err, dbruntime.ErrClosed) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// Stats snapshots the manager and plan-cache counters.
func (b *local) Stats(_ context.Context, front FrontEndStats) any {
	hits, misses := b.db.PlanCacheStats()
	return StatsResponse{
		Stats:             b.manager.Stats(),
		Budget:            b.manager.Budget(),
		PlanCacheHits:     hits,
		PlanCacheMisses:   misses,
		Statements:        front.Statements,
		StatementsExpired: front.Expired,
		BytesWritten:      front.BytesWritten,
		RowsStreamed:      front.RowsStreamed,
		Relations:         b.db.Relations(),
	}
}

// localStmt is a compiled statement plus the options it was prepared with,
// kept as the baseline for per-execution overrides.
type localStmt struct {
	b    *local
	stmt *dbs3.Stmt
	opt  dbs3.Options
}

func (s *localStmt) Info() PrepareResponse {
	return PrepareResponse{
		SQL:     s.stmt.SQL(),
		Columns: s.stmt.Columns(),
		Types:   s.stmt.ColumnTypes(),
		Params:  s.stmt.NumParams(),
	}
}

// Exec runs under ctx — the HTTP request's, so a client that disconnects
// mid-stream cancels the query and its threads return to the shared budget.
// An execution whose options differ from the prepare-time ones re-resolves
// through the plan cache: a hit unless the join algorithm changed, which
// genuinely needs a different plan.
func (s *localStmt) Exec(ctx context.Context, args []any, wire *Options) (Result, error) {
	stmt := s.stmt
	if opt := Overlay(s.opt, wire); opt != s.opt {
		fresh, err := s.b.db.Prepare(s.stmt.SQL(), &opt)
		if err != nil {
			return nil, err
		}
		stmt = fresh
	}
	rows, err := stmt.QueryContext(ctx, args...)
	if err != nil {
		return nil, err
	}
	return localResult{rows}, nil
}

func (s *localStmt) Close(context.Context) { s.stmt.Close() }

// localResult adapts the facade's cursor: Next, Row, Err, Footer and Close
// are its own.
type localResult struct{ *dbs3.Rows }

func (r localResult) Header() *Header {
	return &Header{Columns: r.Columns(), Types: r.ColumnTypes(), Threads: r.Threads()}
}
