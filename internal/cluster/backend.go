package cluster

import (
	"context"
	"errors"
	"net/http"

	"dbs3/internal/server"
)

// Handler returns the coordinator behind the serve front end: the wire
// protocol a single node speaks — routes, bearer auth, both stream
// encodings, the statement registry with its cap and idle TTL — so any
// client (server.Client included, hence another coordinator) points at a
// coordinator exactly as it would at one node, and gets scatter-gather
// transparently.
func (c *Coordinator) Handler() http.Handler {
	return server.NewFrontEnd(backend{c}, server.Config{MaxStatements: c.maxStmt, AuthToken: c.token})
}

// backend adapts the coordinator's Go API, whose cursors carry per-shard
// footers, to server.Backend.
type backend struct{ c *Coordinator }

func (b backend) Query(ctx context.Context, sql string, args []any, opt *server.Options) (server.Result, error) {
	rows, err := b.c.Query(ctx, sql, args, opt)
	if err != nil {
		return nil, err
	}
	return result{rows}, nil
}

func (b backend) Prepare(ctx context.Context, sql string, opt *server.Options) (server.Prepared, error) {
	stmt, err := b.c.Prepare(ctx, sql, opt)
	if err != nil {
		return nil, err
	}
	return prepared{stmt}, nil
}

// Stats refreshes the node snapshots and returns the cluster view.
func (b backend) Stats(ctx context.Context, front server.FrontEndStats) any {
	b.c.Poll(ctx)
	st := b.c.Stats()
	st.Statements = front.Statements
	return st
}

// ErrorStatus maps a scatter error to an HTTP status: a worker's own HTTP
// rejection keeps its code, a worker (or whole replica set) that could not
// be reached is a bad gateway, and anything else (parse errors,
// argument-count mismatches) is the client's request.
func (b backend) ErrorStatus(err error) int {
	var se *server.StatusError
	if errors.As(err, &se) {
		return se.Code
	}
	var ne *NodeError
	var she *ShardError
	if errors.As(err, &she) || errors.As(err, &ne) {
		return http.StatusBadGateway
	}
	return http.StatusBadRequest
}

type prepared struct{ *Stmt }

func (p prepared) Exec(ctx context.Context, args []any, opt *server.Options) (server.Result, error) {
	rows, err := p.Stmt.Exec(ctx, args, opt)
	if err != nil {
		return nil, err
	}
	return result{rows}, nil
}

// result narrows the cluster footer to the wire footer: the per-shard
// breakdown is the Go API's, not the protocol's.
type result struct{ *Rows }

func (r result) Footer() *server.Footer {
	f := r.Rows.Footer()
	return &server.Footer{RowCount: f.RowCount, Threads: f.Threads}
}
