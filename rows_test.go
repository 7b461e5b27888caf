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

// TestRowsWait drives Wait over producers the test steps: a buffered row
// is ready at once, a stop that fires while the producer is blocked is
// false and loses no row, the end of the result is ready and the footer
// still counts what Next delivered, and Close drops a row Wait took ahead
// and waits for the producer.
func TestRowsWait(t *testing.T) {
	// stepped pushes one row per receive on step, up to n, and then ends.
	stepped := func(step <-chan struct{}, n int) *Rows {
		ctx, cancel := context.WithCancel(context.Background())
		return NewRows(ctx, cancel, []string{"n"}, []string{"INT"}, 4, Footer{},
			func(ctx context.Context, push func([]any) error, _ *Footer) error {
				for i := range n {
					select {
					case <-step:
					case <-ctx.Done():
						return ctx.Err()
					}
					if err := push([]any{int64(i)}); err != nil {
						return err
					}
				}
				return nil
			})
	}
	fired := make(chan time.Time, 1)
	fired <- time.Time{}
	next := func(t *testing.T, rows *Rows, want int64) {
		t.Helper()
		if !rows.Next() {
			t.Fatalf("no row %d: %v", want, rows.Err())
		}
		if got := rows.Row()[0]; got != want {
			t.Fatalf("row %v, want %d", got, want)
		}
	}

	t.Run("buffered row", func(t *testing.T) {
		step := make(chan struct{})
		rows := stepped(step, 1)
		defer rows.Close()
		step <- struct{}{}
		for len(rows.ch) == 0 {
			time.Sleep(time.Millisecond)
		}
		// stop has fired as well: a buffered row must win regardless.
		if !rows.Wait(fired) {
			t.Fatal("Wait with a row buffered = false")
		}
		next(t, rows, 0)
	})

	t.Run("stop while blocked", func(t *testing.T) {
		step := make(chan struct{})
		rows := stepped(step, 2)
		defer rows.Close()
		if rows.Wait(time.After(20 * time.Millisecond)) {
			t.Fatal("Wait on a blocked producer = true before stop")
		}
		step <- struct{}{}
		next(t, rows, 0)
		if rows.Wait(time.After(20 * time.Millisecond)) {
			t.Fatal("second Wait on a blocked producer = true before stop")
		}
		// Released mid-Wait, the row is received ahead and Next returns it.
		time.AfterFunc(20*time.Millisecond, func() { step <- struct{}{} })
		if !rows.Wait(time.After(5 * time.Second)) {
			t.Fatal("Wait missed a row pushed while it blocked")
		}
		next(t, rows, 1)
	})

	t.Run("end of result", func(t *testing.T) {
		step := make(chan struct{})
		rows := stepped(step, 3)
		defer rows.Close()
		go func() {
			for range 3 {
				step <- struct{}{}
			}
		}()
		n := 0
		for {
			if !rows.Wait(time.After(5 * time.Second)) {
				t.Fatalf("Wait timed out after %d rows", n)
			}
			if !rows.Next() {
				break
			}
			n++
		}
		if rows.Err() != nil {
			t.Fatal(rows.Err())
		}
		if f := rows.Footer(); n != 3 || f == nil || f.RowCount != int64(n) {
			t.Fatalf("footer %+v after %d rows, want rowCount 3", f, n)
		}
		if !rows.Wait(nil) {
			t.Error("Wait on an exhausted cursor = false")
		}
	})

	t.Run("close with a row held", func(t *testing.T) {
		step := make(chan struct{})
		var returned atomic.Bool
		ctx, cancel := context.WithCancel(context.Background())
		rows := NewRows(ctx, cancel, []string{"n"}, []string{"INT"}, 1, Footer{},
			func(ctx context.Context, push func([]any) error, _ *Footer) error {
				defer returned.Store(true)
				<-step
				for i := int64(0); ; i++ {
					if err := push([]any{i}); err != nil {
						return err
					}
				}
			})
		time.AfterFunc(20*time.Millisecond, func() { close(step) })
		if !rows.Wait(time.After(5 * time.Second)) {
			t.Fatal("Wait missed the first row")
		}
		if !rows.holding {
			t.Fatal("Wait returned without taking the row it blocked for")
		}
		if err := rows.Close(); err != nil {
			t.Errorf("Close with a row held = %v, want nil", err)
		}
		if !returned.Load() {
			t.Error("Close returned before the producer did")
		}
		if rows.Next() || rows.Err() != nil || rows.Footer() != nil {
			t.Errorf("closed cursor: Err %v, Footer %v, want nil and nil and no rows", rows.Err(), rows.Footer())
		}
	})
}
