package server

import (
	"bufio"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// chunkRows is how many rows the server batches per wire message. Small
// enough that the first chunk leaves while a big query is still producing,
// large enough that encoding overhead amortizes.
const chunkRows = 64

// writeBuffer sizes the bufio.Writer that coalesces frames: a wide streamed
// result pays one Write to the connection per buffer fill, not one per
// 64-row chunk.
const writeBuffer = 32 << 10

// streamFlushInterval bounds how stale buffered rows may get on a slowly
// producing query: a chunk emitted at least this long after the last flush
// forces the buffer (and the HTTP flusher) out, so coalescing never turns a
// trickle of rows into a stalled client.
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
// write coalescing, staleness flush and byte/row accounting. A client that
// disconnects mid-stream fails a write; the deferred Close then aborts the
// result (for the local backend the request context already did).
func (s *Server) stream(w http.ResponseWriter, res Result, contentType string) {
	defer res.Close()

	w.Header().Set("Content-Type", contentType)
	w.Header().Set("X-Accel-Buffering", "no") // proxies must not re-buffer the stream

	// Frames coalesce in a sized bufio.Writer: a wide streamed result pays
	// one connection Write per buffer fill instead of one per 64-row
	// chunk. Streaming latency stays bounded: the header, the first row
	// chunk and the terminal message flush immediately, and a background
	// ticker flushes anything buffered at least every streamFlushInterval —
	// so a slowly producing query can never strand rows in the buffer while
	// it blocks for the next chunk. wmu serializes the handler's writes with
	// the ticker's flushes (neither bufio.Writer nor http.ResponseWriter is
	// concurrency-safe).
	hdr := res.Header()
	bw := bufio.NewWriterSize(&countingWriter{w: w, total: &s.bytesWritten}, writeBuffer)
	enc := NewStreamEncoder(bw, contentType, hdr.Types)
	flusher, _ := w.(http.Flusher)
	var wmu sync.Mutex
	dirty := false // buffered bytes not yet flushed; guarded by wmu
	flushLocked := func() {
		bw.Flush()
		if flusher != nil {
			flusher.Flush()
		}
		dirty = false
	}
	stopFlush := make(chan struct{})
	flushDone := make(chan struct{})
	go func() {
		defer close(flushDone)
		ticker := time.NewTicker(streamFlushInterval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				wmu.Lock()
				if dirty {
					flushLocked()
				}
				wmu.Unlock()
			case <-stopFlush:
				return
			}
		}
	}()
	defer func() {
		close(stopFlush)
		<-flushDone
		// Final drain for the error-return paths; success paths flushed.
		wmu.Lock()
		flushLocked()
		wmu.Unlock()
	}()
	// write runs one encoder call under the write mutex; flush forces its
	// bytes (and anything buffered) out. Without flush the bytes leave when
	// the buffer fills or the ticker fires.
	write := func(fn func() error, flush bool) error {
		wmu.Lock()
		defer wmu.Unlock()
		err := fn()
		if flush {
			flushLocked()
		} else {
			dirty = true
		}
		return err
	}

	if err := write(func() error { return enc.Header(hdr) }, true); err != nil {
		return
	}

	var count int64
	firstChunk := true
	chunk := make([][]any, 0, chunkRows)
	emit := func() bool {
		if len(chunk) == 0 {
			return true
		}
		// Counted as they leave, like the bytes: a stats poll during a long
		// stream sees its progress, and one right after it sees it all.
		count += int64(len(chunk))
		s.rowsStreamed.Add(int64(len(chunk)))
		err := write(func() error { return enc.Rows(chunk) }, firstChunk)
		firstChunk = false
		chunk = chunk[:0]
		return err == nil
	}
	for res.Next() {
		chunk = append(chunk, res.Row())
		if len(chunk) >= chunkRows && !emit() {
			return
		}
	}
	if err := res.Err(); err != nil {
		// The header is already on the wire, so the failure travels in-band;
		// the missing done message tells a half-read client the stream is
		// truncated, not complete.
		write(func() error { return enc.Fail(err.Error()) }, true)
		return
	}
	if !emit() {
		return
	}
	// The footer is the backend's, except the count: that is what this
	// stream put on the wire.
	foot := *res.Footer()
	foot.RowCount = count
	write(func() error { return enc.Done(&foot) }, true)
}
