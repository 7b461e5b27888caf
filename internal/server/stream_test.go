package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dbs3"
)

// heldRows is how many rows heldBackend's producer pushes before it stalls:
// fewer than a chunk, so they leave only by the staleness flush.
const heldRows = 3

// heldBackend is a Backend whose every query pushes heldRows rows and then
// blocks until release is closed.
type heldBackend struct{ release chan struct{} }

func (b heldBackend) Query(ctx context.Context, _ string, _ []any, _ *Options) (*dbs3.Rows, error) {
	ctx, cancel := context.WithCancel(ctx)
	return dbs3.NewRows(ctx, cancel, []string{"n"}, []string{"INT"}, 8, dbs3.Footer{Threads: 1},
		func(ctx context.Context, push func([]any) error, _ *dbs3.Footer) error {
			for i := range heldRows {
				if err := push([]any{int64(i)}); err != nil {
					return err
				}
			}
			select {
			case <-b.release:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}), nil
}

func (heldBackend) Prepare(context.Context, string, *Options) (Prepared, error) {
	return nil, errors.New("heldBackend: no prepared statements")
}

func (heldBackend) Stats(context.Context, FrontEndStats) any { return struct{}{} }

func (heldBackend) ErrorStatus(error) int { return http.StatusBadRequest }

// TestStreamSendsHeldRows: rows the front end holds in a partial chunk
// reach the client while the producer stalls, in both encodings, and the
// stream still ends with a footer counting them once the producer returns.
// The bound is streamFlushInterval; 5 s only keeps a loaded machine from
// failing the test.
func TestStreamSendsHeldRows(t *testing.T) {
	for _, columnar := range []bool{false, true} {
		name := "ndjson"
		if columnar {
			name = "columnar"
		}
		t.Run(name, func(t *testing.T) {
			b := heldBackend{release: make(chan struct{})}
			ts := httptest.NewServer(NewFrontEnd(b, Config{}))
			t.Cleanup(ts.Close)
			t.Cleanup(func() { ts.Client().CloseIdleConnections() })
			client := &Client{Base: ts.URL, HTTP: ts.Client(), Columnar: columnar}
			stream, err := client.Query(context.Background(), "SELECT n FROM held", nil, nil)
			if err != nil {
				close(b.release)
				t.Fatal(err)
			}
			defer stream.Close()

			rows := make(chan []any)
			go func() {
				defer close(rows)
				for i := 0; i < heldRows && stream.Next(); i++ {
					rows <- stream.Row()
				}
			}()
			deadline := time.After(5 * time.Second)
			got := 0
		read:
			for got < heldRows {
				select {
				case row, ok := <-rows:
					if !ok {
						break read
					}
					if row[0] != int64(got) {
						t.Errorf("row %d = %v, want %d", got, row, got)
					}
					got++
				case <-deadline:
					break read
				}
			}
			// The producer returns now; the reader then ends either way.
			close(b.release)
			for range rows {
			}
			if got < heldRows {
				t.Fatalf("%d of %d rows reached the client while the producer stalled: %v", got, heldRows, stream.Err())
			}

			if stream.Next() {
				t.Fatalf("row %v past the %d pushed", stream.Row(), heldRows)
			}
			if err := stream.Err(); err != nil {
				t.Fatal(err)
			}
			if f := stream.Footer(); f == nil || f.RowCount != heldRows {
				t.Fatalf("footer %+v, want rowCount %d", f, heldRows)
			}
		})
	}
}
