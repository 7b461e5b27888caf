package cluster

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"dbs3/internal/esql"
	"dbs3/internal/lera"
	"dbs3/internal/server"
)

// rowChanDepth buffers the shared fan-in channel: deep enough that a worker
// stream keeps decoding while the consumer is busy with another shard's
// chunk, small enough that backpressure still reaches slow consumers.
const rowChanDepth = 256

// NodeFooter is one shard's contribution to a scatter-gather result.
type NodeFooter struct {
	// Node is the replica that completed the shard's subquery — after a
	// mid-stream failover, the sibling that finished, not the one that died.
	Node string `json:"node"`
	// Rows is the shard's partial row count (pre-merge for aggregates).
	Rows int64 `json:"rows"`
	// Threads is what the replica's scheduler granted the subquery.
	Threads int `json:"threads"`
}

// Footer closes a complete scatter-gather result.
type Footer struct {
	// RowCount is the number of rows the coordinator delivered (post-merge
	// for aggregates).
	RowCount int64 `json:"rowCount"`
	// Threads is the cluster-wide thread total: the sum of every shard's
	// grant.
	Threads int `json:"threads"`
	// Nodes holds the per-shard footers, in fan-out order.
	Nodes []NodeFooter `json:"nodes"`
}

// Rows iterates a scatter-gather result with the same cursor shape as
// server.RowStream: Next/Row/Err/Footer/Close. For plain selections and
// joins rows stream as workers produce them (interleaved across shards, no
// global order); for aggregates the coordinator has already drained and
// merged the partials by the time Rows is returned, and iteration walks the
// merged groups in group-key order.
type Rows struct {
	header *server.Header
	g      *gather
	stream bool    // true: pull from g.rowc; false: walk buf
	buf    [][]any // merged aggregate rows
	cur    []any
	count  int64
	footer *Footer
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
	footers []NodeFooter
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

// openFn opens one shard subquery on one concrete replica.
type openFn func(ctx context.Context, rep *replica) (*server.RowStream, error)

// Query scatter-gathers one ad-hoc statement: it derives the merge shape
// once (the coordinator-side compile), fans the unchanged SQL out to every
// shard with the remote-load-adjusted options, and merges the streams.
func (c *Coordinator) Query(ctx context.Context, sql string, args []any, opt *server.Options) (*Rows, error) {
	spec, err := esql.ScatterPlan(sql)
	if err != nil {
		return nil, err
	}
	if len(args) != spec.Params {
		return nil, fmt.Errorf("cluster: statement has %d parameters, got %d arguments", spec.Params, len(args))
	}
	return c.scatter(ctx, spec, func(ctx context.Context, rep *replica) (*server.RowStream, error) {
		return rep.client.Query(ctx, sql, args, c.shardOptions(c.shards[rep.shard], opt))
	})
}

// scatter wraps runScatter with the coordinator-level retry: when
// RetryWholeQuery is set, a replica fault that escapes per-subquery
// failover (a death after rows merged) restarts the query once — here for
// errors surfacing before Rows is returned (open phase, aggregate merge),
// via Rows.restart for errors surfacing mid-iteration. Client-visible
// failures are counted at the edges only, so transparent recoveries never
// inflate the counter.
func (c *Coordinator) scatter(ctx context.Context, spec *esql.ScatterSpec, open openFn) (*Rows, error) {
	c.queries.Add(1)
	rows, err := c.runScatter(ctx, spec, open)
	if err != nil && c.retryWhole && replicaFault(err) && ctx.Err() == nil {
		c.wholeQueryRetries.Add(1)
		rows, err = c.runScatter(ctx, spec, open)
	}
	if err != nil {
		c.failures.Add(1)
		return nil, err
	}
	rows.onFail = func() { c.failures.Add(1) }
	if rows.stream && c.retryWhole {
		rows.restart = func() (*Rows, error) {
			c.wholeQueryRetries.Add(1)
			return c.runScatter(ctx, spec, open)
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
func (c *Coordinator) openOnShard(ctx context.Context, sh *shard, exclude *replica, want *server.Header, open openFn) (sub *subquery, failedOver bool, err error) {
	var lastErr error
	tried := 0
	for _, rep := range sh.candidates() {
		if rep == exclude {
			continue
		}
		if ctx.Err() != nil {
			break
		}
		st, err := open(ctx, rep)
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
			if !equalStrings(h.Columns, want.Columns) || !equalStrings(h.Types, want.Types) {
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
func (c *Coordinator) runScatter(ctx context.Context, spec *esql.ScatterSpec, open openFn) (*Rows, error) {
	fanCtx, cancel := context.WithCancel(ctx)
	subs := make([]*subquery, len(c.shards))
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			sub, failedOver, err := c.openOnShard(fanCtx, sh, nil, nil, open)
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
	cluster := &server.Header{
		Columns:     head.Columns,
		Types:       head.Types,
		Threads:     0,
		Utilization: 0,
	}
	for _, sub := range subs {
		h := sub.st.Header()
		if !equalStrings(h.Columns, head.Columns) || !equalStrings(h.Types, head.Types) {
			return abort(fmt.Errorf("cluster: node %s result shape %v %v disagrees with node %s %v %v (diverged catalogs?)",
				sub.rep.name, h.Columns, h.Types, subs[0].rep.name, head.Columns, head.Types))
		}
		cluster.Threads += h.Threads
		if h.Utilization > cluster.Utilization {
			cluster.Utilization = h.Utilization
		}
	}

	g := &gather{
		cancel:  cancel,
		rowc:    make(chan []any, rowChanDepth),
		closed:  make(chan struct{}),
		footers: make([]NodeFooter, len(c.shards)),
	}
	var readers sync.WaitGroup
	for i, sub := range subs {
		readers.Add(1)
		go func(i int, sub *subquery) {
			defer readers.Done()
			c.readSubquery(fanCtx, g, i, sub, cluster, open)
		}(i, sub)
	}
	go func() {
		readers.Wait()
		close(g.rowc)
		close(g.closed)
	}()

	rows := &Rows{header: cluster, g: g}
	if !spec.HasAgg {
		rows.stream = true
		return rows, nil
	}
	// Grouped merge: drain every partial stream, fold group-wise with the
	// merge aggregate, and hand back the groups in key order — the same
	// sorted output a single node's Aggregate operator emits.
	merged, err := mergeGroups(g, spec)
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
func (c *Coordinator) readSubquery(ctx context.Context, g *gather, i int, sub *subquery, want *server.Header, open openFn) {
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
				g.footers[i] = NodeFooter{Node: rep.name, Rows: f.RowCount, Threads: f.Threads}
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
		nsub, _, oerr := c.openOnShard(ctx, sub.sh, rep, want, open)
		if oerr != nil {
			g.fail(oerr)
			return
		}
		c.failovers.Add(1)
		st, rep = nsub.st, nsub.rep
	}
}

// mergeGroups drains the fan-in channel into a group table keyed by the
// leading GroupCols columns, folding the partial aggregate value (the
// single trailing column) with the merge aggregate.
func mergeGroups(g *gather, spec *esql.ScatterSpec) ([][]any, error) {
	groups := make(map[string][]any)
	for row := range g.rowc {
		if len(row) != spec.GroupCols+1 {
			return nil, fmt.Errorf("cluster: aggregate partial row has %d columns, want %d group + 1 value", len(row), spec.GroupCols)
		}
		key := groupKey(row[:spec.GroupCols])
		if acc, ok := groups[key]; ok {
			v, err := foldValue(spec.Merge, acc[spec.GroupCols], row[spec.GroupCols])
			if err != nil {
				return nil, err
			}
			acc[spec.GroupCols] = v
		} else {
			groups[key] = row
		}
	}
	if err := g.firstErr(); err != nil {
		return nil, err
	}
	out := make([][]any, 0, len(groups))
	for _, row := range groups {
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool {
		return compareRows(out[i], out[j], spec.GroupCols) < 0
	})
	return out, nil
}

// groupKey canonicalizes a group key for the merge table: type-tagged,
// length-delimited, so ("1","2") and (12,) can never collide.
func groupKey(cols []any) string {
	var b strings.Builder
	for _, v := range cols {
		switch t := v.(type) {
		case int64:
			b.WriteByte('i')
			b.WriteString(strconv.FormatInt(t, 10))
		case string:
			b.WriteByte('s')
			b.WriteString(strconv.Itoa(len(t)))
			b.WriteByte(':')
			b.WriteString(t)
		default:
			// Streams only carry int64 and string; anything else would have
			// failed wire decoding already.
			b.WriteString(fmt.Sprintf("?%v", t))
		}
		b.WriteByte('\x1f')
	}
	return b.String()
}

// foldValue merges two partial aggregate values.
func foldValue(kind lera.AggKind, a, b any) (any, error) {
	switch kind {
	case lera.AggSum:
		ai, aok := a.(int64)
		bi, bok := b.(int64)
		if !aok || !bok {
			return nil, fmt.Errorf("cluster: SUM merge over non-integer partials (%T, %T)", a, b)
		}
		return ai + bi, nil
	case lera.AggMin, lera.AggMax:
		less, err := lessValue(a, b)
		if err != nil {
			return nil, err
		}
		if less == (kind == lera.AggMin) {
			return a, nil
		}
		return b, nil
	default:
		return nil, fmt.Errorf("cluster: aggregate %v has no merge", kind)
	}
}

// lessValue orders two same-typed engine values (int64 numerically, string
// lexically), mirroring relation.Tuple.Compare.
func lessValue(a, b any) (bool, error) {
	switch av := a.(type) {
	case int64:
		bv, ok := b.(int64)
		if !ok {
			return false, fmt.Errorf("cluster: comparing %T with %T", a, b)
		}
		return av < bv, nil
	case string:
		bv, ok := b.(string)
		if !ok {
			return false, fmt.Errorf("cluster: comparing %T with %T", a, b)
		}
		return av < bv, nil
	default:
		return false, fmt.Errorf("cluster: unordered value type %T", a)
	}
}

// compareRows orders rows by their first n columns, for the merged-group
// sort. Values inside one column are homogeneous; a type mismatch would
// have failed the fold already, so it sorts arbitrarily-but-stably here.
func compareRows(a, b []any, n int) int {
	for i := 0; i < n && i < len(a) && i < len(b); i++ {
		if less, err := lessValue(a[i], b[i]); err == nil {
			if less {
				return -1
			}
			if l2, _ := lessValue(b[i], a[i]); l2 {
				return 1
			}
		}
	}
	return 0
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Header returns the cluster-level stream header: the (validated-identical)
// result shape, the sum of the shards' thread grants, and the maximum
// utilization any shard reported.
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

// Footer returns the cluster footer — set only after a complete iteration.
func (r *Rows) Footer() *Footer { return r.footer }

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
	f := &Footer{RowCount: r.count}
	r.g.mu.Lock()
	f.Nodes = append(f.Nodes, r.g.footers...)
	r.g.mu.Unlock()
	for _, nf := range f.Nodes {
		f.Threads += nf.Threads
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
