package cluster

import (
	"context"
	"fmt"
	"sync/atomic"

	"dbs3"
	"dbs3/internal/esql"
	"dbs3/internal/server"
)

// Stmt is one coordinator-side prepared statement: its merge shape,
// compiled once, its result metadata, and the options it was prepared with.
// The workers hold nothing for it: each execution is an ordinary scatter of
// the SQL, and the workers' plan caches make that compile-once.
type Stmt struct {
	c      *Coordinator
	spec   *esql.ScatterSpec
	opt    dbs3.Options
	info   server.PrepareResponse
	closed atomic.Bool
}

// Prepare compiles a statement's merge shape and asks one replica to
// describe its result: shards in order, each shard's replicas in placement
// order, with the statement prepared there and closed again at once. Each
// outcome is noted on the replica's breaker; a replica fault moves on to
// the next replica, and any other error (the statement itself is bad)
// fails the prepare, since every replica would reject it the same way.
func (c *Coordinator) Prepare(ctx context.Context, sql string, opt *server.Options) (*Stmt, error) {
	spec, err := esql.ScatterPlan(sql)
	if err != nil {
		return nil, err
	}
	pr, err := c.describe(ctx, sql, opt)
	if err != nil {
		c.failures.Add(1)
		return nil, err
	}
	return &Stmt{c: c, spec: spec, opt: server.Overlay(dbs3.Options{}, opt), info: server.PrepareResponse{
		SQL:     sql,
		Columns: pr.Columns,
		Types:   pr.Types,
		Params:  spec.Params,
	}}, nil
}

// describe returns the first replica's description of sql.
func (c *Coordinator) describe(ctx context.Context, sql string, opt *server.Options) (*server.PrepareResponse, error) {
	var lastErr error
	for _, sh := range c.shards {
		for _, rep := range sh.candidates() {
			pr, err := rep.client.Prepare(ctx, sql, c.shardOptions(sh, opt))
			if fault := rep.note(err); err != nil {
				lastErr = &NodeError{Node: rep.name, Err: err}
				if !fault {
					return nil, lastErr
				}
				continue
			}
			_ = rep.client.CloseStmt(ctx, pr.ID)
			return pr, nil
		}
	}
	return nil, lastErr
}

// Info returns the statement's metadata (the id is the registry's to set).
func (s *Stmt) Info() server.PrepareResponse { return s.info }

// Exec scatter-gathers one execution: the statement's SQL with args, under
// the prepare-time options overlaid by opt.
func (s *Stmt) Exec(ctx context.Context, args []any, opt *server.Options) (*dbs3.Rows, error) {
	if s.closed.Load() {
		return nil, fmt.Errorf("cluster: statement closed: %w", server.ErrNoStatement)
	}
	return s.c.scatter(ctx, &query{
		sql:  s.info.SQL,
		spec: s.spec,
		args: args,
		opt:  &server.Options{Options: server.Overlay(s.opt, opt)},
	})
}

// Close makes later executions fail with server.ErrNoStatement.
func (s *Stmt) Close(context.Context) { s.closed.Store(true) }
