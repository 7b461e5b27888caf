package dbs3

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"dbs3/internal/core"
	"dbs3/internal/lera"
	"dbs3/internal/relation"
)

// Rows is a streaming query result cursor. The engine's final store node
// feeds rows into a bounded sink as its instances produce them, so the first
// row is available long before the query finishes and a large result never
// has to fit in memory at once. Iterate database/sql-style:
//
//	rows, err := db.QueryContext(ctx, sql, nil)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//		var a, b int64
//		if err := rows.Scan(&a, &b); err != nil { ... }
//	}
//	if err := rows.Err(); err != nil { ... }
//
// Close mid-iteration cancels the query's context: the engine aborts,
// producing threads unwind, and — when a QueryManager is installed — the
// query's thread reservation returns to the shared budget immediately, not
// when the abandoned result would have finished. A Rows is not safe for
// concurrent use by multiple goroutines; the query execution behind it is
// parallel regardless.
type Rows struct {
	cols        []string
	types       []string
	threads     int
	utilization float64

	ch     chan []any
	done   chan struct{} // closed by the execution goroutine when it settles
	cancel context.CancelFunc
	parent context.Context // the caller's context, to tell its cancellation from Close's

	cur       []any
	err       error
	closed    bool
	exhausted bool
	once      sync.Once

	// Written by the execution goroutine before close(done).
	execErr      error
	operators    []OperatorStats
	chainThreads []int
	spilledBytes int64
	spillPasses  int64
}

// Columns names the result columns, known from the prepared plan before the
// first row arrives.
func (r *Rows) Columns() []string { return append([]string(nil), r.cols...) }

// ColumnTypes reports the result column types ("INT" or "STRING"), aligned
// with Columns and likewise known before the first row.
func (r *Rows) ColumnTypes() []string { return append([]string(nil), r.types...) }

// Threads is the total degree of parallelism the scheduler allocated.
func (r *Rows) Threads() int { return r.threads }

// Utilization is the processor utilization the scheduler saw: the Options
// value, or — when a QueryManager is installed — the smoothed measured load
// at admission if higher.
func (r *Rows) Utilization() float64 { return r.utilization }

// Next advances to the next row, blocking until one is produced, the result
// is exhausted, or the query fails or is cancelled. It returns false at the
// end of the result; check Err to distinguish exhaustion from failure.
func (r *Rows) Next() bool {
	if r.closed {
		return false
	}
	row, ok := <-r.ch
	if !ok {
		<-r.done
		r.err = r.execErr
		r.exhausted = true
		r.cur = nil // Scan after the last row is an error, not a stale re-read
		r.release()
		return false
	}
	r.cur = row
	return true
}

// Row returns the current row — one int64 or string per column — without
// copying; nil before the first successful Next and after the last. Every
// row is its own slice (the cursor never reuses one), so a caller may keep
// it past the next Next — the serve front end batches rows into wire chunks
// this way instead of paying a per-row Scan.
func (r *Rows) Row() []any { return r.cur }

// Scan copies the current row into dest, one pointer per column: *int64,
// *int, *string or *any.
func (r *Rows) Scan(dest ...any) error {
	if r.cur == nil {
		return fmt.Errorf("dbs3: Scan called without a successful Next")
	}
	if len(dest) != len(r.cur) {
		return fmt.Errorf("dbs3: Scan got %d destinations for %d columns", len(dest), len(r.cur))
	}
	for i, d := range dest {
		switch p := d.(type) {
		case *any:
			*p = r.cur[i]
		case *int64:
			v, ok := r.cur[i].(int64)
			if !ok {
				return fmt.Errorf("dbs3: column %s is %T, not int64", r.cols[i], r.cur[i])
			}
			*p = v
		case *int:
			v, ok := r.cur[i].(int64)
			if !ok {
				return fmt.Errorf("dbs3: column %s is %T, not int64", r.cols[i], r.cur[i])
			}
			*p = int(v)
		case *string:
			v, ok := r.cur[i].(string)
			if !ok {
				return fmt.Errorf("dbs3: column %s is %T, not string", r.cols[i], r.cur[i])
			}
			*p = v
		default:
			return fmt.Errorf("dbs3: unsupported Scan destination %T", d)
		}
	}
	return nil
}

// Err returns the error that terminated the query, if any: an operator
// error, or the context's error when the query was cancelled externally.
// The one cancellation that is not an error is the one Close itself causes
// — a deliberate early close of a healthy query leaves Err nil.
func (r *Rows) Err() error { return r.err }

// Close cancels the query if it is still running, waits for the engine to
// unwind (threads are back in the manager budget when Close returns), and
// releases the cursor. Closing an exhausted or already-closed cursor does
// no further work. The cancellation Close itself causes is not an error,
// but a failure that already terminated the query (an operator error, an
// external cancellation) is returned rather than swallowed, and stays
// visible on Err — Close and Err always agree. Always close a cursor you
// do not fully drain: an abandoned open cursor pins its query's threads on
// sink backpressure forever.
func (r *Rows) Close() error {
	r.once.Do(func() {
		r.closed = true
		r.cur = nil
		// Sample the caller's context before cancelling: a parent that
		// dies while we wait for the engine to unwind did not abort the
		// query — Close did, deliberately.
		external := r.parent.Err() != nil
		r.cancel()
		<-r.done
		// Close's own cancel can only ever surface as context.Canceled
		// with the caller's context live at cancel time; anything else —
		// an operator error, an external cancellation or deadline that
		// already aborted the query — is a real failure.
		if r.execErr != nil && (external || !errors.Is(r.execErr, context.Canceled)) {
			r.err = r.execErr
		}
	})
	return r.err
}

// release marks an exhausted cursor closed and frees its context resources.
func (r *Rows) release() {
	r.once.Do(func() {
		r.closed = true
		r.cancel()
	})
}

// Operators reports per-operator scheduling statistics. The counters are
// complete once iteration ended normally (Next returned false with a nil
// Err); an aborted or failed query reports none.
func (r *Rows) Operators() []OperatorStats {
	select {
	case <-r.done:
		return append([]OperatorStats(nil), r.operators...)
	default:
		return nil
	}
}

// ChainThreads is the per-chain thread trace of a managed multi-chain query:
// the totals granted at each materialization-point renegotiation, in chain
// order (see Options.Materialize). Empty for single-chain statements,
// explicit-thread executions and unmanaged databases; available once the
// execution settled.
func (r *Rows) ChainThreads() []int {
	select {
	case <-r.done:
		return append([]int(nil), r.chainThreads...)
	default:
		return nil
	}
}

// SpillStats reports the query's larger-than-memory activity under a memory
// budget: bytes written to spill runs and partition/merge passes taken
// across all operators. Both zero when the query fit its grant (or ran
// unbounded); available once the execution settled.
func (r *Rows) SpillStats() (bytes, passes int64) {
	select {
	case <-r.done:
		return r.spilledBytes, r.spillPasses
	default:
		return 0, 0
	}
}

// All drains the remaining rows into a materialized Result — the pre-cursor
// shape of a query answer — and closes the cursor. Rows already consumed via
// Next are not included. Calling All on a cursor that was closed before
// exhaustion is an error (the missing rows are unrecoverable), not an empty
// result.
func (r *Rows) All() (*Result, error) {
	if r.closed && !r.exhausted {
		return nil, fmt.Errorf("dbs3: All called on a closed cursor")
	}
	res := &Result{Columns: r.Columns(), Threads: r.threads, Utilization: r.utilization}
	for r.Next() {
		res.Data = append(res.Data, r.cur)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	res.Operators = r.Operators()
	res.ChainThreads = r.ChainThreads()
	res.SpilledBytes, res.SpillPasses = r.SpillStats()
	return res, nil
}

// Result is a fully materialized query result: plain Go values plus
// execution statistics. Produced by Rows.All and Database.QueryAll for
// callers (tests, examples, small interactive answers) that want the whole
// table at once.
type Result struct {
	// Columns names the result columns.
	Columns []string
	// Data holds one row per slice; values are int64 or string.
	Data [][]any
	// Threads is the total degree of parallelism used.
	Threads int
	// Utilization is the processor utilization the scheduler saw.
	Utilization float64
	// Operators reports per-operator scheduling statistics.
	Operators []OperatorStats
	// ChainThreads is the per-chain renegotiated thread trace of a managed
	// multi-chain query (see Rows.ChainThreads).
	ChainThreads []int
	// SpilledBytes and SpillPasses total the query's larger-than-memory
	// activity under a memory budget (see Rows.SpillStats).
	SpilledBytes int64
	SpillPasses  int64
}

// FormatStats renders the row-count/thread line, the per-chain renegotiated
// thread trace of a multi-chain query, and the per-operator scheduling
// counters that footer a query answer — shared by Result.String and
// streaming printers (cmd/dbs3) that count rows as they drain a cursor.
func FormatStats(rowCount, threads int, chainThreads []int, ops []OperatorStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "(%d rows, %d threads)\n", rowCount, threads)
	if len(chainThreads) > 1 {
		fmt.Fprintf(&b, "  chain threads (readmitted at each boundary): %v\n", chainThreads)
	}
	var spilled, passes int64
	for _, op := range ops {
		fmt.Fprintf(&b, "  %-12s threads=%-3d strategy=%-6s instances=%-5d activations=%-8d emitted=%-8d secondary=%d",
			op.Name, op.Threads, op.Strategy, op.Instances, op.Activations, op.Emitted, op.SecondaryPicks)
		if op.SpilledBytes > 0 || op.SpillPasses > 0 {
			fmt.Fprintf(&b, " spilled=%dB passes=%d", op.SpilledBytes, op.SpillPasses)
		}
		b.WriteByte('\n')
		spilled += op.SpilledBytes
		passes += op.SpillPasses
	}
	if spilled > 0 || passes > 0 {
		fmt.Fprintf(&b, "  spill: %d bytes over %d pass(es) — working memory exceeded the grant; results are unaffected\n", spilled, passes)
	}
	return b.String()
}

// rowSink adapts the engine's tuple stream to the cursor channel, converting
// tuples to plain Go values on the producing pool threads. Push blocks on
// the bounded channel — backpressure — and unblocks when the query context
// is cancelled, which is what lets Close abort a query whose consumer
// stopped reading.
type rowSink struct {
	ctx context.Context
	ch  chan<- []any
}

func (s *rowSink) Push(t relation.Tuple) error {
	select {
	case s.ch <- rowOf(t):
		return nil
	case <-s.ctx.Done():
		return s.ctx.Err()
	}
}

// PushBatch implements core.RowBatchSink: the vectorized store path delivers
// whole tuple runs here. Conversion happens before any channel send, so the
// producing pool thread does its allocation work outside the backpressure
// wait; each row still travels the bounded channel individually, keeping the
// cursor's first-row latency and Close-abort semantics unchanged.
func (s *rowSink) PushBatch(ts []relation.Tuple) error {
	for _, t := range ts {
		select {
		case s.ch <- rowOf(t):
		case <-s.ctx.Done():
			return s.ctx.Err()
		}
	}
	return nil
}

// rowOf converts one tuple to the cursor's plain-Go row form.
func rowOf(t relation.Tuple) []any {
	row := make([]any, len(t))
	for i, v := range t {
		if v.Kind() == relation.TInt {
			row[i] = v.AsInt()
		} else {
			row[i] = v.AsString()
		}
	}
	return row
}

// operatorStats snapshots per-operator counters after an execution settled.
func operatorStats(plan *lera.Plan, res *core.Result) []OperatorStats {
	out := make([]OperatorStats, 0, len(plan.Order))
	for _, id := range plan.Order {
		st := res.Stats[id]
		if st == nil {
			continue
		}
		out = append(out, OperatorStats{
			Name:           plan.Graph.Nodes[id].Name,
			Threads:        res.Alloc.Node[id],
			Strategy:       res.Alloc.Strategy[id].String(),
			Instances:      plan.Nodes[id].Degree,
			Activations:    st.Activations.Load(),
			Emitted:        st.Emitted.Load(),
			SecondaryPicks: st.SecondaryPicks.Load(),
			SpilledBytes:   st.SpilledBytes.Load(),
			SpillPasses:    st.SpillPasses.Load(),
		})
	}
	return out
}
