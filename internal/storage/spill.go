package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"dbs3/internal/relation"
)

// Larger-than-memory execution: when a blocking operator exceeds its memory
// grant it writes state to spill runs — each run one real OS temp file
// holding its tuples' codec bytes back to back — and reads every run back
// exactly once, front to back, straight from its file: a Grace partition
// pair is joined once, an aggregate's merge cursor passes over its run once,
// a store's runs are harvested once. Nothing is read twice, so nothing is
// cached: a cache would never hit, and what it held would sit outside the
// accountant.

// BlockSize is the unit of spill I/O: a run writer buffers this many bytes
// of encoded tuples before it writes them, and a store buffers at least this
// many accounted bytes before it spills. A tuple larger than a block is
// written whole.
const BlockSize = 8192

// SpillEnv is a query's larger-than-memory state: the accountant enforcing
// its memory grant and the temp files its runs are written to. The engine
// threads one env through every blocking operator of a query; Close on any
// exit path (success, error, cancel) removes every spill file.
type SpillEnv struct {
	Mem *Accountant

	dir    string
	mu     sync.Mutex
	files  []*os.File
	closed bool
}

// PoolPagesFor returns 0. It sized a read-back page cache runs no longer
// go through; it stays, with NewSpillEnv's matching argument, because the
// benchmark module under bench/ is built against this signature.
func PoolPagesFor(grant int64) int { return 0 }

// PoolMetrics is empty: it carried that cache's counters. It
// stays as NewSpillEnv's fourth parameter type for the same reason as
// PoolPagesFor.
type PoolMetrics struct{}

// NewSpillEnv creates an env with the given memory grant (bytes) writing
// temp files under dir ("" = os.TempDir()). poolPages and metrics are
// ignored (see PoolPagesFor), and the error is always nil.
func NewSpillEnv(dir string, grant int64, poolPages int, metrics *PoolMetrics) (*SpillEnv, error) {
	return &SpillEnv{Mem: NewAccountant(grant), dir: dir}, nil
}

// newFile opens a fresh spill file owned by the env.
func (e *SpillEnv) newFile() (*os.File, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, fmt.Errorf("storage: spill env already closed")
	}
	f, err := os.CreateTemp(e.dir, "dbs3-spill-*.run")
	if err != nil {
		return nil, fmt.Errorf("storage: creating spill file: %w", err)
	}
	e.files = append(e.files, f)
	return f, nil
}

// Close closes and removes every spill file. Idempotent; called on query
// completion, error, and cancellation alike, so a query aborted mid-spill
// leaves no temp files or descriptors behind. A cursor still reading a run
// of the env gets a read error.
func (e *SpillEnv) Close() error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	files := e.files
	e.files = nil
	e.closed = true
	e.mu.Unlock()
	var first error
	for _, f := range files {
		err := f.Close()
		if rmErr := os.Remove(f.Name()); err == nil {
			err = rmErr
		}
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Spilled returns the query's cumulative (bytes, passes).
func (e *SpillEnv) Spilled() (bytes, passes int64) {
	if e == nil {
		return 0, 0
	}
	return e.Mem.Spilled()
}

// NewRun starts a run writer in the env.
func (e *SpillEnv) NewRun() *RunWriter { return &RunWriter{env: e} }

// RunWriter appends encoded tuples to one spill file (one file per run),
// a block at a time. Writers are not safe for concurrent use; operators
// guard them with their own locks.
type RunWriter struct {
	env    *SpillEnv
	file   *os.File
	block  []byte
	bytes  int64
	tuples int
}

// Add appends a tuple to the run.
func (w *RunWriter) Add(t relation.Tuple) error {
	if w.file == nil {
		f, err := w.env.newFile()
		if err != nil {
			return err
		}
		w.file, w.block = f, make([]byte, 0, BlockSize)
	}
	w.tuples++
	if n := EncodedSize(t); len(w.block)+n > BlockSize {
		if err := w.flush(); err != nil {
			return err
		}
		if n > BlockSize {
			return w.write(EncodeTuple(nil, t))
		}
	}
	w.block = EncodeTuple(w.block, t)
	return nil
}

// flush writes the block and empties it.
func (w *RunWriter) flush() error {
	err := w.write(w.block)
	w.block = w.block[:0]
	return err
}

// write appends b at the file's end and counts it as spilled.
func (w *RunWriter) write(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	if _, err := w.file.Write(b); err != nil {
		return fmt.Errorf("storage: writing spill run: %w", err)
	}
	w.bytes += int64(len(b))
	w.env.Mem.NoteSpill(int64(len(b)))
	return nil
}

// Finish writes the partial block and returns the completed run.
func (w *RunWriter) Finish() (Run, error) {
	if w.file == nil {
		return Run{}, nil
	}
	if err := w.flush(); err != nil {
		return Run{}, err
	}
	return Run{file: w.file, bytes: w.bytes, tuples: w.tuples}, nil
}

// Run is a finished sequence of spilled tuples, read back in write order
// from its file.
type Run struct {
	file   io.ReaderAt
	bytes  int64
	tuples int
}

// Empty reports whether the run holds no tuples.
func (r Run) Empty() bool { return r.tuples == 0 }

// Len returns the number of tuples in the run.
func (r Run) Len() int { return r.tuples }

// Bytes returns the run's on-disk size: the encoded sizes of its tuples.
func (r Run) Bytes() int64 { return r.bytes }

// Each calls f for every tuple in write order. The tuples are decoded into
// one slab for the whole run and f may keep them; like any slab tuple, one
// that is kept pins the chunk and arena it shares with its neighbours.
func (r Run) Each(f func(t relation.Tuple) error) error {
	c := r.Cursor()
	for {
		t, ok, err := c.Next()
		if err != nil || !ok {
			return err
		}
		if err := f(t); err != nil {
			return err
		}
	}
}

// All reads the whole run back into memory, into one slab.
func (r Run) All() ([]relation.Tuple, error) {
	out := make([]relation.Tuple, 0, r.tuples)
	err := r.Each(func(t relation.Tuple) error {
		out = append(out, t)
		return nil
	})
	return out, err
}

// Cursor returns a streaming reader over the run.
func (r Run) Cursor() *RunCursor { return &RunCursor{run: r} }

// RunCursor streams a run front to back: it reads the file into one buffer,
// a block or more at a time, and decodes tuples out of it into one slab. A
// tuple cut by the end of a read is carried to the front of the buffer and
// completed by the next; the buffer grows only when one tuple does not fit
// it, and never past the run's length.
type RunCursor struct {
	run    Run
	off    int64 // file offset of the next read
	buf    []byte
	lo, hi int // buf[lo:hi] is read but not yet decoded
	slab   relation.Slab
}

// Next advances to the next tuple, reporting false at the end of the run.
func (c *RunCursor) Next() (relation.Tuple, bool, error) {
	for {
		if c.lo < c.hi {
			t, n, err := DecodeTupleInto(&c.slab, c.buf[c.lo:c.hi])
			if err == nil {
				c.lo += n
				return t, true, nil
			}
			if !errors.Is(err, errTruncated) || c.off == c.run.bytes {
				return nil, false, fmt.Errorf("storage: corrupt spill run at byte %d: %w", c.off-int64(c.hi-c.lo), err)
			}
		} else if c.off == c.run.bytes {
			return nil, false, nil
		}
		if err := c.fill(); err != nil {
			return nil, false, err
		}
	}
}

// fill moves the undecoded bytes to the front of the buffer — into a
// buffer twice as large when they fill it — and reads the run's next bytes
// behind them.
func (c *RunCursor) fill() error {
	n, left := c.hi-c.lo, c.run.bytes-c.off
	buf := c.buf
	if n == len(buf) {
		buf = make([]byte, min(int64(max(2*n, BlockSize)), int64(n)+left))
	}
	copy(buf, c.buf[c.lo:c.hi])
	c.buf = buf
	read := buf[n:min(int64(len(buf)), int64(n)+left)]
	if k, err := c.run.file.ReadAt(read, c.off); k < len(read) {
		return fmt.Errorf("storage: reading spill run: %w", err)
	}
	c.off += int64(len(read))
	c.lo, c.hi = 0, n+len(read)
	return nil
}
