package server

import (
	"bufio"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"dbs3"
)

// chunkRows is how many rows the server batches per wire message. Small
// enough that the first chunk leaves while a big query is still producing,
// large enough that encoding overhead amortizes.
const chunkRows = 64

// writeBuffer sizes the bufio.Writer that coalesces frames: a wide streamed
// result pays one Write to the connection per buffer fill, not one per
// 64-row chunk.
const writeBuffer = 32 << 10

// streamFlushInterval bounds how stale a held row may get on a slowly
// producing query: this long after the first row held since the last timer
// flush, the partial chunk is sent and the buffer (and the HTTP flusher)
// forced out, so coalescing never turns a trickle of rows into a stalled
// client.
const streamFlushInterval = 100 * time.Millisecond

// countingWriter counts the encoded bytes a stream puts on the wire (it sits
// under the bufio.Writer, so it sees coalesced writes, not per-frame ones)
// and feeds the server's lifetime counter as they happen — a stats poll
// during a long stream sees its progress, not zero.
type countingWriter struct {
	w     io.Writer
	total *atomic.Int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.total.Add(int64(n))
	return n, err
}

// stream writes res onto the response in the negotiated encoding
// (contentType: NDJSON or binary columnar; see colwire.go) and closes it.
// Every backend's results leave through here, so they all get the same
// write coalescing, staleness flush and byte/row accounting. The header is
// read off the cursor before the first row. A client that disconnects
// mid-stream fails a write; the deferred Close then aborts the result (for
// the local backend the request context already did).
func (s *Server) stream(w http.ResponseWriter, res *dbs3.Rows, contentType string) {
	defer res.Close()

	w.Header().Set("Content-Type", contentType)
	w.Header().Set("X-Accel-Buffering", "no") // proxies must not re-buffer the stream

	// Frames coalesce in a sized bufio.Writer: a wide streamed result pays
	// one connection Write per buffer fill instead of one per 64-row
	// chunk. Streaming latency stays bounded: the header, the first row
	// chunk and the terminal message flush at once, and the first row held
	// since the last timer flush arms a timer of streamFlushInterval. While
	// it is armed the loop waits for the producer only until it fires, then
	// sends the partial chunk and flushes: no row, encoded or not, waits
	// longer on a stalled producer.
	types := res.ColumnTypes()
	bw := bufio.NewWriterSize(&countingWriter{w: w, total: &s.bytesWritten}, writeBuffer)
	enc := NewStreamEncoder(bw, contentType, types)
	flusher, _ := w.(http.Flusher)
	flush := func() error {
		err := bw.Flush()
		if flusher != nil {
			flusher.Flush()
		}
		return err
	}
	// The terminal message and the error-return paths flush here.
	defer flush()

	if enc.Header(&Header{Columns: res.Columns(), Types: types, Threads: res.Threads()}) != nil || flush() != nil {
		return
	}

	firstChunk := true
	chunk := make([][]any, 0, chunkRows)
	// emit encodes the held rows as one chunk; with force it flushes them
	// and everything buffered before them.
	emit := func(force bool) bool {
		if len(chunk) > 0 {
			// Counted as they leave, like the bytes: a stats poll during a
			// long stream sees its progress, and one right after it sees it
			// all.
			s.rowsStreamed.Add(int64(len(chunk)))
			err := enc.Rows(chunk)
			chunk = chunk[:0]
			if err != nil {
				return false
			}
		}
		return !force || flush() == nil
	}
	timer := time.NewTimer(streamFlushInterval)
	timer.Stop()
	defer timer.Stop()
	armed := false
	for {
		if armed && !res.Wait(timer.C) {
			armed = false
			if !emit(true) {
				return
			}
			continue
		}
		if !res.Next() {
			break
		}
		chunk = append(chunk, res.Row())
		if !armed {
			// The timer is stopped, or fired and drained by Wait.
			timer.Reset(streamFlushInterval)
			armed = true
		}
		if len(chunk) >= chunkRows {
			if !emit(firstChunk) {
				return
			}
			firstChunk = false
		}
	}
	if err := res.Err(); err != nil {
		// The header is already on the wire, so the failure travels in-band;
		// the missing done message tells a half-read client the stream is
		// truncated, not complete.
		enc.Fail(err.Error())
		return
	}
	if emit(false) {
		enc.Done(res.Footer())
	}
}
