package dbs3

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestNewRowsContract drives the cursor constructor with toy producers: a
// producer's error is the cursor's Err, Close mid-stream is not an error
// and waits for the producer, push fails once Close cancelled, and the
// footer exists only after success, counting the rows delivered.
func TestNewRowsContract(t *testing.T) {
	cols, types := []string{"n"}, []string{"INT"}
	start := func(produce func(context.Context, func([]any) error, *Footer) error) *Rows {
		ctx, cancel := context.WithCancel(context.Background())
		return NewRows(ctx, cancel, cols, types, 1, Footer{Threads: 3}, produce)
	}

	t.Run("producer error", func(t *testing.T) {
		boom := errors.New("boom")
		rows := start(func(_ context.Context, push func([]any) error, _ *Footer) error {
			for i := range 2 {
				if err := push([]any{int64(i)}); err != nil {
					return err
				}
			}
			return boom
		})
		n := 0
		for rows.Next() {
			n++
		}
		if n != 2 || !errors.Is(rows.Err(), boom) {
			t.Errorf("delivered %d rows and Err %v, want 2 and %v", n, rows.Err(), boom)
		}
		if rows.Footer() != nil {
			t.Error("a failed result has a footer")
		}
		if err := rows.Close(); !errors.Is(err, boom) {
			t.Errorf("Close = %v, want %v", err, boom)
		}
	})

	t.Run("close mid-stream", func(t *testing.T) {
		var pushErr error
		var returned atomic.Bool
		rows := start(func(_ context.Context, push func([]any) error, _ *Footer) error {
			defer returned.Store(true)
			for i := int64(0); ; i++ {
				if pushErr = push([]any{i}); pushErr != nil {
					// Unwinding takes a while; Close must wait for it.
					time.Sleep(10 * time.Millisecond)
					return pushErr
				}
			}
		})
		if !rows.Next() {
			t.Fatalf("no first row: %v", rows.Err())
		}
		if err := rows.Close(); err != nil {
			t.Errorf("Close mid-stream = %v, want nil", err)
		}
		if !returned.Load() {
			t.Error("Close returned before the producer did")
		}
		if !errors.Is(pushErr, context.Canceled) {
			t.Errorf("push after Close = %v, want context.Canceled", pushErr)
		}
		if rows.Err() != nil || rows.Footer() != nil || rows.Next() {
			t.Errorf("closed cursor: Err %v, Footer %v, want nil and nil and no rows", rows.Err(), rows.Footer())
		}
	})

	t.Run("footer on success", func(t *testing.T) {
		rows := start(func(_ context.Context, push func([]any) error, f *Footer) error {
			for i := range 5 {
				if err := push([]any{int64(i)}); err != nil {
					return err
				}
			}
			f.Threads = 9
			return nil
		})
		n := 0
		for rows.Next() {
			if rows.Footer() != nil {
				t.Fatal("footer set before the end of the result")
			}
			n++
		}
		if rows.Err() != nil {
			t.Fatal(rows.Err())
		}
		f := rows.Footer()
		if f == nil || f.RowCount != int64(n) || n != 5 {
			t.Fatalf("footer %+v after %d rows, want rowCount 5", f, n)
		}
		if f.Threads != 9 || rows.Threads() != 3 {
			t.Errorf("footer threads %d and Threads() %d, want the producer's 9 and the up-front 3", f.Threads, rows.Threads())
		}
	})
}
