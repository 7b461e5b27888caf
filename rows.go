package dbs3

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"dbs3/internal/core"
	"dbs3/internal/lera"
	"dbs3/internal/relation"
)

// Rows is a streaming query result cursor. Its producer — the engine's
// final store node for a statement, the shard readers or the merged groups
// for a cluster coordinator — feeds rows into a bounded buffer as they are
// made, so the first row is available long before the query finishes and a
// large result never has to fit in memory at once. Iterate
// database/sql-style:
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
//
// Every result has this one cursor: a statement's, a cluster coordinator's
// (Coordinator.Query) and what either backend of the serve front end
// streams onto the wire, which reads the header off Columns, ColumnTypes
// and Threads and bounds how long it holds a row with Wait.
type Rows struct {
	cols    []string
	types   []string
	threads int

	ch     chan []any
	done   chan struct{} // closed by the producing goroutine when it settles
	ctx    context.Context
	cancel context.CancelFunc

	cur       []any
	held      []any // the next row, received ahead by Wait when holding
	holding   bool
	count     int64 // rows delivered
	err       error
	closed    bool
	exhausted bool
	once      sync.Once
	footer    *Footer // &rec once the result completed

	// The producing goroutine writes execErr and rec, except RowCount,
	// before close(done).
	execErr error
	rec     Footer
}

// NewRows starts a cursor over produce, which runs on a goroutine of its
// own and delivers each row through push; the cursor ends with produce's
// error. ctx is the query's context, cancel its cancellation: push waits
// on ctx when depth rows are already buffered and fails with ctx's error
// once it is done, and Close and the end of the result call cancel.
// A cancellation that reaches ctx before Close is an error; the one Close
// causes is not. rec is the record known before the first row, and its
// Threads is what Threads reports; produce may fill in the rest of it
// except RowCount, which the cursor sets. The Footer is rec, and only
// when produce returned nil.
func NewRows(ctx context.Context, cancel context.CancelFunc, cols, types []string, depth int, rec Footer,
	produce func(ctx context.Context, push func([]any) error, f *Footer) error) *Rows {
	r := &Rows{
		cols:    cols,
		types:   types,
		threads: rec.Threads,
		rec:     rec,
		ch:      make(chan []any, depth),
		done:    make(chan struct{}),
		ctx:     ctx,
		cancel:  cancel,
	}
	go func() {
		r.execErr = produce(ctx, r.push, &r.rec)
		close(r.done)
		close(r.ch)
	}()
	return r
}

// push hands one row to the consumer, waiting while the buffer is full:
// backpressure on the producer, released by the query's cancellation.
func (r *Rows) push(row []any) error {
	select {
	case r.ch <- row:
		return nil
	case <-r.ctx.Done():
		return r.ctx.Err()
	}
}

// Columns names the result columns, known from the prepared plan before the
// first row arrives.
func (r *Rows) Columns() []string { return append([]string(nil), r.cols...) }

// ColumnTypes reports the result column types ("INT" or "STRING"), aligned
// with Columns and likewise known before the first row.
func (r *Rows) ColumnTypes() []string { return append([]string(nil), r.types...) }

// Threads is the total degree of parallelism the scheduler allocated.
func (r *Rows) Threads() int { return r.threads }

// Wait reports whether Next can return without waiting for the producer:
// a row is buffered, the result has ended or the cursor is closed. When it
// has to block, it receives the next row ahead of time, which Next then
// returns first, and reports true; it reports false when stop fires first.
// The serve front end waits this way on a timer, so a row it holds leaves
// on time however long the producer stalls.
func (r *Rows) Wait(stop <-chan time.Time) bool {
	if r.closed || r.holding || len(r.ch) > 0 {
		return true
	}
	select {
	case row, ok := <-r.ch:
		// A closed channel stays closed: Next sees the end for itself.
		r.held, r.holding = row, ok
		return true
	case <-stop:
		return false
	}
}

// Next advances to the next row, blocking until one is produced, the result
// is exhausted, or the query fails or is cancelled. It returns false at the
// end of the result; check Err to distinguish exhaustion from failure.
func (r *Rows) Next() bool {
	if r.closed {
		return false
	}
	row, ok := r.held, r.holding
	if ok {
		r.held, r.holding = nil, false
	} else {
		row, ok = <-r.ch
	}
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

// Err returns the error that terminated the query, if any: the producer's
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
		r.cur, r.held = nil, nil
		// Sample the query's context before cancelling: a caller whose
		// context dies while we wait for the producer to unwind did not
		// abort the query — Close did, deliberately.
		external := r.ctx.Err() != nil
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
	res := &Result{Columns: r.Columns()}
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
	// Footer is the execution record: threads, the admission decision,
	// per-operator statistics, chain trace and spill totals. Its RowCount counts every row the
	// cursor delivered, which exceeds len(Data) when rows were read before
	// All.
	Footer
}

// rowSink adapts the engine's tuple stream to a cursor's push, converting
// tuples to plain Go values on the producing pool threads. Push blocks while
// the cursor's buffer is full — backpressure — and unblocks when the query
// context is cancelled, which is what lets Close abort a query whose
// consumer stopped reading.
type rowSink struct {
	push func([]any) error
}

// Push is PushBatch of one tuple.
func (s *rowSink) Push(t relation.Tuple) error {
	return s.PushBatch([]relation.Tuple{t})
}

// PushBatch implements core.RowBatchSink: the vectorized store path delivers
// whole tuple runs here. Each row still travels to the cursor individually,
// keeping the cursor's first-row latency and Close-abort semantics
// unchanged.
func (s *rowSink) PushBatch(ts []relation.Tuple) error {
	for _, t := range ts {
		if err := s.push(relation.RowOf(t)); err != nil {
			return err
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
