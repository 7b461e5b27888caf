package dbs3

import (
	"context"
	"errors"
	"fmt"
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
	utilization float64

	ch     chan []any
	done   chan struct{} // closed by the execution goroutine when it settles
	cancel context.CancelFunc
	parent context.Context // the caller's context, to tell its cancellation from Close's

	cur       []any
	count     int64 // rows delivered
	err       error
	closed    bool
	exhausted bool
	once      sync.Once
	footer    *Footer // &rec once the result completed

	// rec.Threads is set at admission; the execution goroutine writes
	// execErr and the rest of rec, except RowCount, before close(done).
	execErr error
	rec     Footer
}

// Columns names the result columns, known from the prepared plan before the
// first row arrives.
func (r *Rows) Columns() []string { return append([]string(nil), r.cols...) }

// ColumnTypes reports the result column types ("INT" or "STRING"), aligned
// with Columns and likewise known before the first row.
func (r *Rows) ColumnTypes() []string { return append([]string(nil), r.types...) }

// Threads is the total degree of parallelism the scheduler allocated.
func (r *Rows) Threads() int { return r.rec.Threads }

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
		if r.err == nil {
			r.rec.RowCount = r.count
			r.footer = &r.rec
		}
		r.release()
		return false
	}
	r.cur = row
	r.count++
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

// Footer is the query's execution record. It is set only once Next
// returned false with a nil Err, and its RowCount is the number of rows this
// cursor delivered; before that, after an early Close and after a failure it
// is nil.
func (r *Rows) Footer() *Footer { return r.footer }

// SpillStats is Footer's spill totals, zero while Footer is nil. It stays
// because the benchmark module reads it.
func (r *Rows) SpillStats() (bytes, passes int64) {
	if f := r.Footer(); f != nil {
		return f.SpilledBytes, f.SpillPasses
	}
	return 0, 0
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
	res := &Result{Columns: r.Columns(), Utilization: r.utilization}
	for r.Next() {
		res.Data = append(res.Data, r.cur)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	res.Footer = *r.Footer()
	return res, nil
}

// Result is a fully materialized query result: plain Go values plus
// execution statistics. Produced by Rows.All and Database.QueryAllContext
// for callers (tests, examples, small interactive answers) that want the
// whole table at once.
type Result struct {
	// Columns names the result columns.
	Columns []string
	// Data holds one row per slice; values are int64 or string.
	Data [][]any
	// Utilization is the processor utilization the scheduler saw.
	Utilization float64
	// Footer is the execution record: threads, per-operator statistics,
	// chain trace and spill totals. Its RowCount counts every row the
	// cursor delivered, which exceeds len(Data) when rows were read before
	// All.
	Footer
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
	case s.ch <- relation.RowOf(t):
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
		case s.ch <- relation.RowOf(t):
		case <-s.ctx.Done():
			return s.ctx.Err()
		}
	}
	return nil
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
