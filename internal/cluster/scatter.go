package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"dbs3"
	"dbs3/internal/esql"
	"dbs3/internal/lera"
	"dbs3/internal/operator"
	"dbs3/internal/relation"
	"dbs3/internal/server"
)

// rowChanDepth is the depth of a coordinator cursor's row buffer: deep
// enough that a worker stream keeps decoding while the consumer is busy
// with another shard's chunk, small enough that backpressure still reaches
// slow consumers.
const rowChanDepth = 256

// gather is one fan-out of a scatter: the subqueries past the header
// barrier, their streams' context and the cancel that tears them down,
// whether any row was pushed, the first error and each shard's footer.
type gather struct {
	ctx    context.Context
	cancel context.CancelFunc
	subs   []*subquery
	header *server.Header
	pushed atomic.Bool

	mu      sync.Mutex
	err     error
	footers []dbs3.NodeFooter
}

// fail records the first stream error and cancels the siblings. Later
// errors are dropped: once one shard dies the cancellation itself makes the
// other streams fail, and those secondary errors are noise.
func (g *gather) fail(err error) {
	g.mu.Lock()
	first := g.err == nil
	if first {
		g.err = err
	}
	g.mu.Unlock()
	if first {
		g.cancel()
	}
}

// query is one scatter-gather execution: the SQL every shard runs, its
// merge shape, the placeholder arguments and the caller's options.
type query struct {
	sql  string
	spec *esql.ScatterSpec
	args []any
	opt  *server.Options
}

// Query scatter-gathers one ad-hoc statement: it derives the merge shape
// once (the coordinator-side compile), fans the unchanged SQL out to every
// shard with the remote-load-adjusted options, and merges the streams.
//
// The result is the facade's cursor over the scatter, as the serve front
// end streams it. For plain selections and joins rows stream as workers
// produce them (interleaved across shards, no global order); for
// aggregates the coordinator has already folded the partials through
// operator.Aggregate by the time the cursor is returned, and iteration
// walks the merged groups in group-key (Tuple.Compare) order. Its Footer
// holds each shard's record as it arrived under Nodes, and Threads and the
// spill totals summed over them.
func (c *Coordinator) Query(ctx context.Context, sql string, args []any, opt *server.Options) (*dbs3.Rows, error) {
	spec, err := esql.ScatterPlan(sql)
	if err != nil {
		return nil, err
	}
	return c.scatter(ctx, &query{sql: sql, spec: spec, args: args, opt: opt})
}

// scatter runs one statement on every shard and returns the cursor over the
// merge. A replica fault that escapes per-subquery failover (no live
// replica left, or a death after the shard's rows merged) restarts the
// whole scatter once while nothing has reached the consumer: here for the
// open phase and the grouped fold, both over before scatter returns, and
// in the plain producer for a fan-in that ends before its first row.
// Client-visible failures are counted once, where they end the result; a
// transparent recovery and the cancellation Close causes are not failures.
func (c *Coordinator) scatter(ctx context.Context, q *query) (*dbs3.Rows, error) {
	if len(q.args) != q.spec.Params {
		return nil, fmt.Errorf("cluster: statement has %d parameters, got %d arguments", q.spec.Params, len(q.args))
	}
	c.queries.Add(1)
	qctx, cancel := context.WithCancel(ctx)
	g, fd, err := c.attempt(qctx, q)
	restarted := err != nil && c.restart(ctx, err)
	if restarted {
		g, fd, err = c.attempt(qctx, q)
	}
	if err != nil {
		cancel()
		c.failures.Add(1)
		return nil, err
	}
	return dbs3.NewRows(qctx, cancel, g.header.Columns, g.header.Types, rowChanDepth, dbs3.Footer{Threads: g.header.Threads},
		func(pctx context.Context, push func([]any) error, f *dbs3.Footer) error {
			var err error
			if fd != nil {
				err = fd.emit(push)
			} else {
				g, err = c.stream(pctx, q, g, restarted, push)
			}
			// Close's own cancellation is the one error that is not a
			// failure: the cursor does not report it either.
			closed := errors.Is(err, context.Canceled) && pctx.Err() != nil && ctx.Err() == nil
			if err != nil && !closed {
				c.failures.Add(1)
			}
			if err == nil {
				f.Nodes, f.Threads = g.footers, 0
				for _, nf := range f.Nodes {
					f.Threads += nf.Threads
					f.SpilledBytes += nf.SpilledBytes
					f.SpillPasses += nf.SpillPasses
				}
			}
			return err
		}), nil
}

// restart reports whether err earns the scatter its one whole-query
// restart — a replica fault while the query is live — and counts it.
func (c *Coordinator) restart(ctx context.Context, err error) bool {
	if !replicaFault(err) || ctx.Err() != nil {
		return false
	}
	c.wholeQueryRetries.Add(1)
	return true
}

// attempt opens the scatter and, for a grouped result, folds every
// shard's partials.
func (c *Coordinator) attempt(ctx context.Context, q *query) (*gather, *fold, error) {
	g, err := c.fanOut(ctx, q, nil)
	if err != nil || !q.spec.HasAgg {
		return g, nil, err
	}
	fd, err := newFold(q.spec, g.header)
	if err != nil {
		g.abort()
		return nil, nil, err
	}
	if err := c.read(q, g, fd.add); err != nil {
		return nil, nil, err
	}
	return g, fd, nil
}

// stream is the plain producer: every shard's reader pushes its rows
// straight into the cursor. A replica fault that ends the fan-in before
// any row was pushed — so before the consumer has one, as buffered rows
// reach it ahead of the error — restarts the whole scatter, unless the
// open phase already spent the restart. It returns the gather that ran
// last, whose footers are the result's.
func (c *Coordinator) stream(ctx context.Context, q *query, g *gather, restarted bool, push func([]any) error) (*gather, error) {
	err := c.read(q, g, push)
	if err == nil || restarted || g.pushed.Load() || !c.restart(ctx, err) {
		return g, err
	}
	if g, err = c.fanOut(ctx, q, g.header); err != nil {
		return nil, err
	}
	return g, c.read(q, g, push)
}

// subquery is one shard's live stream and the replica currently serving it.
type subquery struct {
	sh  *shard
	rep *replica
	st  *server.RowStream
}

// openOnShard establishes a shard's subquery on the first replica (in
// placement-preference order, minus exclude) that accepts it. Each open is
// noted on the replica's breaker; a replica fault moves on to the next
// candidate, and a non-fault error (bad SQL, cancellation) returns
// immediately — it would fail identically everywhere. want, when non-nil,
// is the cluster result shape a replacement stream must match.
// failedOver reports that at least one candidate was skipped over a fault
// before one succeeded.
func (c *Coordinator) openOnShard(ctx context.Context, q *query, sh *shard, exclude *replica, want *server.Header) (sub *subquery, failedOver bool, err error) {
	var lastErr error
	tried := 0
	for _, rep := range sh.candidates() {
		if rep == exclude {
			continue
		}
		if ctx.Err() != nil {
			break
		}
		st, err := rep.client.Query(ctx, q.sql, q.args, c.shardOptions(sh, q.opt))
		if fault := rep.note(err); err != nil {
			ne := &NodeError{Node: rep.name, Err: err}
			if !fault {
				return nil, false, ne
			}
			lastErr = ne
			tried++
			continue
		}
		if want != nil {
			h := st.Header()
			if !slices.Equal(h.Columns, want.Columns) || !slices.Equal(h.Types, want.Types) {
				st.Close()
				return nil, false, &NodeError{Node: rep.name,
					Err: fmt.Errorf("failover result shape %v %v disagrees with the cluster header %v %v (diverged catalogs?)",
						h.Columns, h.Types, want.Columns, want.Types)}
			}
		}
		return &subquery{sh: sh, rep: rep, st: st}, tried > 0, nil
	}
	if lastErr == nil {
		lastErr = ctx.Err()
		if lastErr == nil {
			lastErr = fmt.Errorf("no replica available")
		}
	}
	return nil, false, &ShardError{Shard: sh.index, Replicas: tried, Err: lastErr}
}

// fanOut opens one subquery per shard under a context of its own and waits
// for every header. Any open-phase failure (after per-shard failover is
// exhausted) tears the whole fan-out down and surfaces one error naming the
// shard and its last replica. want, when non-nil, is the result shape a
// restarted scatter must match.
func (c *Coordinator) fanOut(ctx context.Context, q *query, want *server.Header) (*gather, error) {
	fanCtx, cancel := context.WithCancel(ctx)
	g := &gather{
		ctx:     fanCtx,
		cancel:  cancel,
		subs:    make([]*subquery, len(c.shards)),
		footers: make([]dbs3.NodeFooter, len(c.shards)),
	}
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			sub, failedOver, err := c.openOnShard(fanCtx, q, sh, nil, want)
			if err != nil {
				errs[i] = err
				return
			}
			if failedOver {
				c.failovers.Add(1)
			}
			g.subs[i] = sub
		}(i, sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			g.abort()
			return nil, err
		}
	}
	// Header barrier: every shard granted the subquery and declared its
	// result shape; the shapes must agree or the catalogs have diverged.
	head := g.subs[0].st.Header()
	g.header = &server.Header{Columns: head.Columns, Types: head.Types}
	for _, sub := range g.subs {
		h := sub.st.Header()
		if !slices.Equal(h.Columns, head.Columns) || !slices.Equal(h.Types, head.Types) {
			g.abort()
			return nil, fmt.Errorf("cluster: node %s result shape %v %v disagrees with node %s %v %v (diverged catalogs?)",
				sub.rep.name, h.Columns, h.Types, g.subs[0].rep.name, head.Columns, head.Types)
		}
		g.header.Threads += h.Threads
	}
	return g, nil
}

// abort tears down a fan-out that will not be read.
func (g *gather) abort() {
	g.cancel()
	for _, sub := range g.subs {
		if sub != nil {
			sub.st.Close()
		}
	}
}

// read runs one reader per shard, each handing its stream's rows to push,
// and returns once every reader exited: with the first error any of them
// hit, the caller's cancellation or deadline among them.
func (c *Coordinator) read(q *query, g *gather, push func([]any) error) error {
	var readers sync.WaitGroup
	for i, sub := range g.subs {
		readers.Add(1)
		go func(i int, sub *subquery) {
			defer readers.Done()
			c.readSubquery(q, g, i, sub, push)
		}(i, sub)
	}
	readers.Wait()
	g.cancel()
	return g.err // every writer has exited
}

// readSubquery pumps one shard's stream into push. A replica fault before
// this subquery merged any row is retried transparently on a sibling
// replica — the replacement stream re-produces the shard's rows from
// scratch, which is exactly once from the merge's point of view since
// nothing of this shard was merged yet. A fault after rows merged cannot be
// retried shard-locally and fails the gather; the scatter-level restart may
// still re-run the query. A stream the fan-out's cancellation cut short
// records the context's error: a sibling's failure got there first, or the
// caller's cancellation, deadline or Close ends the result.
func (c *Coordinator) readSubquery(q *query, g *gather, i int, sub *subquery, push func([]any) error) {
	ctx := g.ctx
	st, rep := sub.st, sub.rep
	var merged int64
	for {
		cut := false
		for !cut && st.Next() {
			select {
			case <-ctx.Done():
				cut = true
			default:
				if err := push(st.Row()); err != nil {
					st.Close()
					g.fail(err)
					return
				}
				if merged++; merged == 1 {
					g.pushed.Store(true)
				}
			}
		}
		err := st.Err()
		st.Close()
		if cut || (err != nil && ctx.Err() != nil) {
			g.fail(ctx.Err())
			return
		}
		if err == nil {
			rep.note(nil)
			if f := st.Footer(); f != nil {
				g.footers[i] = dbs3.NodeFooter{Node: rep.name, Footer: *f, Rows: f.RowCount}
			}
			return
		}
		if !rep.note(err) || merged > 0 {
			g.fail(&NodeError{Node: rep.name, Err: err})
			return
		}
		nsub, _, oerr := c.openOnShard(ctx, q, sub.sh, rep, g.header)
		if oerr != nil {
			g.fail(oerr)
			return
		}
		c.failovers.Add(1)
		st, rep = nsub.st, nsub.rep
	}
}

// fold merges grouped partials through one instance of the engine's
// aggregate: the leading GroupCols columns are the group key, the single
// trailing column the partial value, and spec.Merge folds the partials.
// Every shard's reader adds to it; OnBatch takes the instance lock.
type fold struct {
	agg   *operator.Aggregate
	octx  *operator.Context
	width int
}

func newFold(spec *esql.ScatterSpec, header *server.Header) (*fold, error) {
	if len(header.Types) != spec.GroupCols+1 {
		return nil, fmt.Errorf("cluster: aggregate result types %v, want %d group + 1 value", header.Types, spec.GroupCols)
	}
	if spec.Merge == lera.AggSum && header.Types[spec.GroupCols] != relation.TInt.String() {
		return nil, fmt.Errorf("cluster: SUM merge over a %s partial column", header.Types[spec.GroupCols])
	}
	agg := &operator.Aggregate{GroupBy: make([]int, spec.GroupCols), Kind: spec.Merge, AggCol: spec.GroupCols}
	for i := range agg.GroupBy {
		agg.GroupBy[i] = i
	}
	octx := &operator.Context{}
	if err := agg.Setup(octx); err != nil {
		return nil, err
	}
	return &fold{agg: agg, octx: octx, width: spec.GroupCols + 1}, nil
}

// add folds one partial row.
func (f *fold) add(row []any) error {
	if len(row) != f.width {
		return fmt.Errorf("cluster: aggregate partial row has %d columns, want %d group + 1 value", len(row), f.width-1)
	}
	t, err := relation.TupleOf(row)
	if err != nil {
		return err
	}
	return f.agg.OnBatch(f.octx, []relation.Tuple{t}, nil)
}

// emit pushes the merged groups in group-key order.
func (f *fold) emit(push func([]any) error) error {
	var err error
	if cerr := f.agg.OnClose(f.octx, func(t relation.Tuple) {
		if err == nil {
			err = push(relation.RowOf(t))
		}
	}); cerr != nil {
		return cerr
	}
	return err
}
