package server

import (
	"context"
	"net/http/httptest"
	"testing"

	"dbs3"
)

// wideRowSQL projects every integer attribute of the Wisconsin relation —
// the paper's 13-column row shape — so bytes/row is what a wide result
// actually costs per row on the wire.
const wideRowSQL = "SELECT unique1, unique2, two, four, ten, twenty, onePercent, " +
	"tenPercent, twentyPercent, fiftyPercent, unique3, evenOnePercent, oddOnePercent " +
	"FROM wisc WHERE unique1 < ?"

const wideRows = 5000

// wideRowServer serves a 20 000-row Wisconsin relation through the full HTTP
// stack; stream runs the wide query once in the given encoding and drains it.
func wideRowServer(tb testing.TB, columnar bool) (srv *Server, stream func()) {
	tb.Helper()
	db := dbs3.New()
	if err := db.CreateWisconsin("wisc", 20_000, 8, "unique2", 42); err != nil {
		tb.Fatal(err)
	}
	m := db.Manager(dbs3.ManagerConfig{Budget: 4})
	srv = New(db, m, Config{})
	ts := httptest.NewServer(srv)
	tb.Cleanup(ts.Close)
	client := &Client{Base: ts.URL, HTTP: ts.Client(), Columnar: columnar}
	return srv, func() {
		stream, err := client.Query(context.Background(), wideRowSQL, []any{wideRows}, nil)
		if err != nil {
			tb.Fatal(err)
		}
		defer stream.Close()
		rows := 0
		for stream.Next() {
			rows++
		}
		if err := stream.Err(); err != nil {
			tb.Fatal(err)
		}
		if rows != wideRows {
			tb.Fatalf("streamed %d rows, want %d", rows, wideRows)
		}
	}
}

// benchmarkServeWideRow reports, next to time and allocations, the encoded
// bytes per row (measured beneath the response buffer, where /stats counts
// them).
func benchmarkServeWideRow(b *testing.B, columnar bool) {
	srv, stream := wideRowServer(b, columnar)
	b.ReportAllocs()
	b.ResetTimer()
	start := srv.bytesWritten.Load()
	for i := 0; i < b.N; i++ {
		stream()
	}
	b.StopTimer()
	b.ReportMetric(float64(srv.bytesWritten.Load()-start)/float64(b.N*wideRows), "bytes/row")
}

func BenchmarkServeWideRowNDJSON(b *testing.B)   { benchmarkServeWideRow(b, false) }
func BenchmarkServeWideRowColumnar(b *testing.B) { benchmarkServeWideRow(b, true) }

// TestColumnarIsDenserOnWideRows: the columnar encoding must stay at least
// 3x denser than NDJSON on the 13-integer-column result (it measures 3.8x:
// ~42 against ~11 bytes per row). Bytes on the wire depend on the data and
// the encoder, not on the clock.
func TestColumnarIsDenserOnWideRows(t *testing.T) {
	bytesOf := func(columnar bool) float64 {
		srv, stream := wideRowServer(t, columnar)
		stream()
		return float64(srv.bytesWritten.Load())
	}
	nd, col := bytesOf(false), bytesOf(true)
	if nd < 3*col {
		t.Errorf("wide rows: %.1f bytes/row as NDJSON, %.1f columnar — %.2fx denser, want at least 3x",
			nd/wideRows, col/wideRows, nd/col)
	}
}
