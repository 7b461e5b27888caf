package cluster

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"dbs3"
	"dbs3/internal/esql"
	"dbs3/internal/lera"
	"dbs3/internal/operator"
	"dbs3/internal/relation"
	"dbs3/internal/server"
)

// rowChanDepth buffers the shared fan-in channel: deep enough that a worker
// stream keeps decoding while the consumer is busy with another shard's
// chunk, small enough that backpressure still reaches slow consumers.
const rowChanDepth = 256

// Rows iterates a scatter-gather result with the same cursor shape as
// server.RowStream: Next/Row/Err/Footer/Close. For plain selections and
// joins rows stream as workers produce them (interleaved across shards, no
// global order); for aggregates the coordinator has already drained the
// partials through operator.Aggregate by the time Rows is returned, and
// iteration walks the merged groups in group-key (Tuple.Compare) order.
type Rows struct {
	header *server.Header
	g      *gather
	stream bool    // true: pull from g.rowc; false: walk buf
	buf    [][]any // merged aggregate rows
	cur    []any
	count  int64
	footer *server.Footer
	err    error
	done   bool
	// onFail is the coordinator's client-visible failure accounting, fired
	// once if an error reaches the consumer. Transparent failovers and
	// whole-query restarts never fire it.
	onFail func()
	// restart re-runs the whole scatter (RetryWholeQuery): armed only for
	// streaming results, consumed on first use.
	restart func() (*Rows, error)
}

// gather is the shared fan-in state of one scatter: the cancel that tears
// down every worker stream, the channel the readers feed, and the first
// error any of them hit.
type gather struct {
	cancel context.CancelFunc
	rowc   chan []any
	closed chan struct{} // closed once every reader exited and rowc is closed

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

func (g *gather) firstErr() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
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
func (c *Coordinator) Query(ctx context.Context, sql string, args []any, opt *server.Options) (*Rows, error) {
	spec, err := esql.ScatterPlan(sql)
	if err != nil {
		return nil, err
	}
	return c.scatter(ctx, &query{sql: sql, spec: spec, args: args, opt: opt})
}

// open opens q's subquery on one concrete replica.
func (c *Coordinator) open(ctx context.Context, q *query, rep *replica) (*server.RowStream, error) {
	return rep.client.Query(ctx, q.sql, q.args, c.shardOptions(c.shards[rep.shard], q.opt))
}

// scatter wraps runScatter with the coordinator-level retry: when
// RetryWholeQuery is set, a replica fault that escapes per-subquery
// failover (a death after rows merged) restarts the query once — here for
// errors surfacing before Rows is returned (open phase, aggregate merge),
// via Rows.restart for errors surfacing mid-iteration. Client-visible
// failures are counted at the edges only, so transparent recoveries never
// inflate the counter.
func (c *Coordinator) scatter(ctx context.Context, q *query) (*Rows, error) {
	if len(q.args) != q.spec.Params {
		return nil, fmt.Errorf("cluster: statement has %d parameters, got %d arguments", q.spec.Params, len(q.args))
	}
	c.queries.Add(1)
	rows, err := c.runScatter(ctx, q)
	if err != nil && c.retryWhole && replicaFault(err) && ctx.Err() == nil {
		c.wholeQueryRetries.Add(1)
		rows, err = c.runScatter(ctx, q)
	}
	if err != nil {
		c.failures.Add(1)
		return nil, err
	}
	rows.onFail = func() { c.failures.Add(1) }
	if rows.stream && c.retryWhole {
		rows.restart = func() (*Rows, error) {
			c.wholeQueryRetries.Add(1)
			return c.runScatter(ctx, q)
		}
	}
	return rows, nil
}

// subquery is one shard's live stream and the replica currently serving it.
type subquery struct {
	sh  *shard
	rep *replica
	st  *server.RowStream
}

// openOnShard establishes a shard's subquery on the first replica (in
// placement-preference order, minus exclude) that accepts it. Replica
// faults move on to the next candidate and feed the breaker; a non-fault
// error (bad SQL, cancellation) returns immediately — it would fail
// identically everywhere. want, when non-nil, is the cluster result shape a
// failover replacement stream must match. failedOver reports that at least
// one candidate was skipped over a fault before one succeeded.
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
		st, err := c.open(ctx, q, rep)
		if err != nil {
			ne := &NodeError{Node: rep.name, Err: err}
			if !replicaFault(err) {
				return nil, false, ne
			}
			rep.brk.failure()
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
		rep.brk.success()
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

// runScatter opens one subquery per shard, waits for every header, and
// wires up the merge. Any open-phase failure (after per-shard failover is
// exhausted) tears the whole fan-out down and surfaces one error naming the
// shard and its last replica.
func (c *Coordinator) runScatter(ctx context.Context, q *query) (*Rows, error) {
	fanCtx, cancel := context.WithCancel(ctx)
	subs := make([]*subquery, len(c.shards))
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			sub, failedOver, err := c.openOnShard(fanCtx, q, sh, nil, nil)
			if err != nil {
				errs[i] = err
				return
			}
			if failedOver {
				c.failovers.Add(1)
			}
			subs[i] = sub
		}(i, sh)
	}
	wg.Wait()
	abort := func(err error) (*Rows, error) {
		cancel()
		for _, sub := range subs {
			if sub != nil {
				sub.st.Close()
			}
		}
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return abort(err)
		}
	}
	// Header barrier: every shard granted the subquery and declared its
	// result shape; the shapes must agree or the catalogs have diverged.
	head := subs[0].st.Header()
	cluster := &server.Header{Columns: head.Columns, Types: head.Types}
	for _, sub := range subs {
		h := sub.st.Header()
		if !slices.Equal(h.Columns, head.Columns) || !slices.Equal(h.Types, head.Types) {
			return abort(fmt.Errorf("cluster: node %s result shape %v %v disagrees with node %s %v %v (diverged catalogs?)",
				sub.rep.name, h.Columns, h.Types, subs[0].rep.name, head.Columns, head.Types))
		}
		cluster.Threads += h.Threads
	}

	g := &gather{
		cancel:  cancel,
		rowc:    make(chan []any, rowChanDepth),
		closed:  make(chan struct{}),
		footers: make([]dbs3.NodeFooter, len(c.shards)),
	}
	var readers sync.WaitGroup
	for i, sub := range subs {
		readers.Add(1)
		go func(i int, sub *subquery) {
			defer readers.Done()
			c.readSubquery(fanCtx, q, g, i, sub, cluster)
		}(i, sub)
	}
	go func() {
		readers.Wait()
		close(g.rowc)
		close(g.closed)
	}()

	rows := &Rows{header: cluster, g: g}
	if !q.spec.HasAgg {
		rows.stream = true
		return rows, nil
	}
	// Grouped merge: drain every partial stream through the engine's
	// aggregate and hand back the groups in key order.
	merged, err := mergeGroups(g, q.spec, cluster)
	if err != nil {
		cancel()
		<-g.closed
		return nil, err
	}
	rows.buf = merged
	return rows, nil
}

// readSubquery pumps one shard's stream into the fan-in channel. A replica
// fault before this subquery merged any row is retried transparently on a
// sibling replica — the replacement stream re-produces the shard's rows
// from scratch, which is exactly once from the merge's point of view since
// nothing of this shard entered the channel yet. A fault after rows merged
// cannot be retried shard-locally (the channel already carries a partial
// shard) and fails the gather; scatter-level RetryWholeQuery may still
// restart the query.
func (c *Coordinator) readSubquery(ctx context.Context, q *query, g *gather, i int, sub *subquery, want *server.Header) {
	st, rep := sub.st, sub.rep
	var merged int64
	for {
		for st.Next() {
			select {
			case g.rowc <- st.Row():
				merged++
			case <-ctx.Done():
				st.Close()
				return
			}
		}
		err := st.Err()
		if err == nil {
			rep.brk.success()
			if f := st.Footer(); f != nil {
				g.mu.Lock()
				g.footers[i] = dbs3.NodeFooter{Node: rep.name, Footer: *f, Rows: f.RowCount}
				g.mu.Unlock()
			}
			st.Close()
			return
		}
		st.Close()
		if ctx.Err() != nil {
			// A sibling failed first or the consumer closed; our cancellation
			// fallout is noise.
			return
		}
		if !replicaFault(err) || merged > 0 {
			g.fail(&NodeError{Node: rep.name, Err: err})
			return
		}
		rep.brk.failure()
		nsub, _, oerr := c.openOnShard(ctx, q, sub.sh, rep, want)
		if oerr != nil {
			g.fail(oerr)
			return
		}
		c.failovers.Add(1)
		st, rep = nsub.st, nsub.rep
	}
}

// mergeGroups drains the fan-in channel through one instance of the
// engine's grouped aggregate: the leading GroupCols columns are the group
// key, the single trailing column the partial value, and spec.Merge folds
// the partials. The groups come back in group-key order.
func mergeGroups(g *gather, spec *esql.ScatterSpec, header *server.Header) ([][]any, error) {
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
	ctx := &operator.Context{}
	if err := agg.Setup(ctx); err != nil {
		return nil, err
	}
	for row := range g.rowc {
		if len(row) != spec.GroupCols+1 {
			return nil, fmt.Errorf("cluster: aggregate partial row has %d columns, want %d group + 1 value", len(row), spec.GroupCols)
		}
		t, err := relation.TupleOf(row)
		if err != nil {
			return nil, err
		}
		if err := agg.OnBatch(ctx, []relation.Tuple{t}, nil); err != nil {
			return nil, err
		}
	}
	if err := g.firstErr(); err != nil {
		return nil, err
	}
	var out [][]any
	err := agg.OnClose(ctx, func(t relation.Tuple) { out = append(out, relation.RowOf(t)) })
	return out, err
}

// Header returns the cluster-level stream header: the (validated-identical)
// result shape and the sum of the shards' thread grants.
func (r *Rows) Header() *server.Header { return r.header }

// Next advances the cursor. For streaming results it blocks on the fan-in
// channel; for merged aggregates it walks the buffer.
func (r *Rows) Next() bool {
	for {
		if r.done {
			return false
		}
		if !r.stream {
			if len(r.buf) == 0 {
				r.complete()
				return false
			}
			r.cur = r.buf[0]
			r.buf = r.buf[1:]
			r.count++
			return true
		}
		row, ok := <-r.g.rowc
		if ok {
			r.cur = row
			r.count++
			return true
		}
		err := r.g.firstErr()
		if err == nil {
			r.complete()
			return false
		}
		if !r.tryRestart(err) {
			return false
		}
		// Restarted: loop and pull from the fresh gather.
	}
}

// tryRestart is the RetryWholeQuery path for a failure that escaped
// per-subquery failover: if nothing was delivered to the consumer yet, the
// whole scatter re-runs once and iteration resumes transparently. Returns
// false after recording the (original or restart) error on the cursor.
func (r *Rows) tryRestart(err error) bool {
	if r.restart == nil || r.count != 0 || !replicaFault(err) {
		r.fail(err)
		return false
	}
	restart := r.restart
	r.restart = nil
	onFail := r.onFail
	r.g.cancel() // release the dead gather's fan-out context
	nr, rerr := restart()
	if rerr != nil {
		r.fail(rerr)
		return false
	}
	*r = *nr
	r.onFail = onFail
	return true
}

// Row returns the current row: one int64 or string per header column.
func (r *Rows) Row() []any { return r.cur }

// Err returns the error that terminated the result, if any.
func (r *Rows) Err() error { return r.err }

// Footer returns the cluster footer — set only after a complete iteration:
// the rows this cursor delivered (post-merge for aggregates), each shard's
// record as it arrived under Nodes, and Threads and the spill totals summed
// over them.
func (r *Rows) Footer() *server.Footer { return r.footer }

func (r *Rows) fail(err error) {
	r.err = err
	if r.onFail != nil {
		r.onFail()
		r.onFail = nil
	}
	r.finish()
}

// complete builds the cluster footer from the per-shard footers.
func (r *Rows) complete() {
	f := &server.Footer{RowCount: r.count}
	r.g.mu.Lock()
	f.Nodes = append(f.Nodes, r.g.footers...)
	r.g.mu.Unlock()
	for _, nf := range f.Nodes {
		f.Threads += nf.Threads
		f.SpilledBytes += nf.SpilledBytes
		f.SpillPasses += nf.SpillPasses
	}
	r.footer = f
	r.finish()
}

func (r *Rows) finish() {
	if !r.done {
		r.done = true
		r.cur = nil
		r.g.cancel()
		<-r.g.closed // every reader exited; no goroutine outlives the result
	}
}

// Close releases the result. Closing mid-stream cancels every worker
// request, which aborts the subqueries and returns their threads to each
// node's budget; Close returns only after all reader goroutines exited.
func (r *Rows) Close() error {
	r.finish()
	return nil
}
