package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"dbs3/internal/esql"
	"dbs3/internal/server"
)

// Stmt is one coordinator-side prepared statement: the original SQL (kept
// for re-preparing), the merge shape compiled once at prepare time, the
// result metadata, and each replica's server-side statement id. A replica
// missing from ids (down at prepare time, or it expired its half) is
// re-prepared lazily the first time a subquery lands on it.
type Stmt struct {
	c    *Coordinator
	sql  string
	spec *esql.ScatterSpec
	info server.PrepareResponse

	mu  sync.Mutex
	ids map[*replica]string // nil once closed
}

// id returns a replica's server-side statement id, if it holds one.
func (s *Stmt) id(r *replica) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.ids[r]
	return id, ok
}

// setID records a replica's half; a statement closed meanwhile keeps none
// (the replica's own idle TTL reclaims the stray half).
func (s *Stmt) setID(r *replica, id string) {
	s.mu.Lock()
	if s.ids != nil {
		s.ids[r] = id
	}
	s.mu.Unlock()
}

// Prepare compiles a statement once cluster-wide: the coordinator derives
// the merge shape, prepares the statement on every replica of every shard
// in parallel, and returns the bundle as one handle. Executions then skip
// both the coordinator-side parse and the workers' parse/compile (their plan caches hold the compiled plan against each
// shard). A replica that is down may miss the prepare — tolerated as long
// as at least one replica per shard holds the statement; the missing half
// is re-prepared lazily if a subquery ever fails over onto it.
func (c *Coordinator) Prepare(ctx context.Context, sql string, opt *server.Options) (*Stmt, error) {
	spec, err := esql.ScatterPlan(sql)
	if err != nil {
		return nil, err
	}
	stmt := &Stmt{c: c, sql: sql, spec: spec, ids: make(map[*replica]string)}
	var reps []*replica
	c.replicas(func(r *replica) { reps = append(reps, r) })
	prs := make([]*server.PrepareResponse, len(reps))
	errs := make([]error, len(reps))
	var wg sync.WaitGroup
	for i, r := range reps {
		wg.Add(1)
		go func(i int, r *replica) {
			defer wg.Done()
			pr, err := r.client.Prepare(ctx, sql, c.shardOptions(c.shards[r.shard], opt))
			if err != nil {
				errs[i] = &NodeError{Node: r.name, Err: err}
				return
			}
			prs[i] = pr
			stmt.setID(r, pr.ID)
		}(i, r)
	}
	wg.Wait()

	cleanup := func() {
		// Best-effort cleanup of the replicas that did prepare.
		for i, pr := range prs {
			if pr != nil {
				_ = reps[i].client.CloseStmt(ctx, pr.ID)
			}
		}
	}
	// A non-fault failure (the statement itself is bad) fails the prepare
	// outright — every replica would reject it the same way.
	var first *server.PrepareResponse
	for i, err := range errs {
		if err == nil {
			if first == nil {
				first = prs[i]
			}
			continue
		}
		if !replicaFault(err) {
			cleanup()
			c.failures.Add(1)
			return nil, err
		}
	}
	// Replica faults are tolerated per shard as long as one replica holds
	// the statement.
	for _, sh := range c.shards {
		prepared := false
		var shardErr error
		replicasTried := 0
		for i, r := range reps {
			if r.shard != sh.index {
				continue
			}
			if errs[i] == nil {
				prepared = true
			} else {
				shardErr = errs[i]
				replicasTried++
			}
		}
		if !prepared {
			cleanup()
			c.failures.Add(1)
			return nil, &ShardError{Shard: sh.index, Replicas: replicasTried, Err: shardErr}
		}
	}

	stmt.info = server.PrepareResponse{
		SQL:     sql,
		Columns: first.Columns,
		Types:   first.Types,
		Params:  spec.Params,
	}
	return stmt, nil
}

// Info returns the statement's metadata (the id is the registry's to set).
func (s *Stmt) Info() server.PrepareResponse { return s.info }

// Exec scatter-gathers one execution of a prepared statement. A replica
// whose server-side statement vanished (expired by its idle-TTL sweep, a
// restart, or it was down at prepare time and a failover just landed on
// it) is transparently re-prepared once and retried; a second miss fails
// that replica's attempt, at which point the ordinary failover machinery
// tries a sibling.
func (s *Stmt) Exec(ctx context.Context, args []any, opt *server.Options) (*Rows, error) {
	c := s.c
	s.mu.Lock()
	closed := s.ids == nil
	s.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("cluster: statement closed: %w", server.ErrNoStatement)
	}
	if len(args) != s.spec.Params {
		return nil, fmt.Errorf("cluster: statement has %d parameters, got %d arguments", s.spec.Params, len(args))
	}
	return c.scatter(ctx, s.spec, func(ctx context.Context, rep *replica) (*server.RowStream, error) {
		opts := c.shardOptions(c.shards[rep.shard], opt)
		if nodeID, ok := s.id(rep); ok {
			st, err := rep.client.Exec(ctx, nodeID, args, opts)
			if !errors.Is(err, server.ErrNoStatement) {
				return st, err
			}
		}
		// The replica holds no (live) half of the statement; re-prepare it
		// there and retry once.
		pr, perr := rep.client.Prepare(ctx, s.sql, nil)
		if perr != nil {
			return nil, fmt.Errorf("re-preparing expired statement: %w", perr)
		}
		s.setID(rep, pr.ID)
		c.repreparations.Add(1)
		return rep.client.Exec(ctx, pr.ID, args, opts)
	})
}

// Close best-effort closes each replica's half (a replica that already
// expired it returns 404, which is the desired end state anyway); later
// executions fail with server.ErrNoStatement.
func (s *Stmt) Close(ctx context.Context) {
	s.mu.Lock()
	ids := s.ids
	s.ids = nil
	s.mu.Unlock()
	var wg sync.WaitGroup
	for r, nodeID := range ids {
		wg.Add(1)
		go func(r *replica, nodeID string) {
			defer wg.Done()
			_ = r.client.CloseStmt(ctx, nodeID)
		}(r, nodeID)
	}
	wg.Wait()
}
