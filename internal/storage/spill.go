package storage

import (
	"fmt"
	"os"
	"sync"

	"dbs3/internal/relation"
)

// Larger-than-memory execution: when a blocking operator exceeds its memory
// grant it writes state to spill runs — each run one real OS temp file of
// PageSize slotted pages — and reads every run back exactly once, front to
// back, straight from its file: a Grace partition pair is joined once, an
// aggregate's merge cursor passes over its run once, a store's runs are
// harvested once. No page is read twice, so no page cache is kept: it would
// never hit, and the pages it held would sit outside the accountant.

// SpillFile is one append-only temp file of PageSize pages. It is removed
// from the filesystem on Close; Close is idempotent and safe on the
// error/cancel path.
type SpillFile struct {
	mu     sync.Mutex
	f      *os.File
	name   string
	pages  int
	closed bool
}

func newSpillFile(dir string) (*SpillFile, error) {
	f, err := os.CreateTemp(dir, "dbs3-spill-*.pages")
	if err != nil {
		return nil, fmt.Errorf("storage: creating spill file: %w", err)
	}
	return &SpillFile{f: f, name: f.Name()}, nil
}

// Append writes a page image at the end of the file and returns its slot.
func (s *SpillFile) Append(img []byte) (int, error) {
	if len(img) != PageSize {
		return 0, fmt.Errorf("storage: spill page image is %d bytes, want %d", len(img), PageSize)
	}
	// Reserve the slot under the lock; write outside it. Holding the
	// mutex across WriteAt would convoy concurrent readers of other
	// slots behind this write's disk latency. WriteAt on distinct offsets
	// is safe concurrently, and a failed write just leaves a hole the
	// caller never hands out — spill errors abandon the whole SpillEnv.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, fmt.Errorf("storage: append to closed spill file %s", s.name)
	}
	slot := s.pages
	s.pages++
	f := s.f
	s.mu.Unlock()
	if _, err := f.WriteAt(img, int64(slot)*PageSize); err != nil {
		return 0, fmt.Errorf("storage: writing spill page: %w", err)
	}
	return slot, nil
}

// Read fills buf, which must be PageSize bytes, with the page image at slot.
// The bounds check happens under the lock, the disk read outside it, so
// concurrent readers never serialize behind one another's I/O. A Close
// racing the read surfaces as a read error (closed descriptor), which only
// happens on the cancel/error path where the result is already discarded.
func (s *SpillFile) Read(slot int, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("storage: spill page buffer is %d bytes, want %d", len(buf), PageSize)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("storage: read of closed spill file %s", s.name)
	}
	if slot < 0 || slot >= s.pages {
		pages := s.pages
		s.mu.Unlock()
		return fmt.Errorf("storage: read of slot %d in spill file with %d pages", slot, pages)
	}
	f := s.f
	s.mu.Unlock()
	if _, err := f.ReadAt(buf, int64(slot)*PageSize); err != nil {
		return fmt.Errorf("storage: reading spill page: %w", err)
	}
	return nil
}

// Pages returns the number of pages written.
func (s *SpillFile) Pages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pages
}

// Close closes the descriptor and removes the file. Idempotent.
func (s *SpillFile) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.f.Close()
	if rmErr := os.Remove(s.name); err == nil {
		err = rmErr
	}
	return err
}

// SpillEnv is a query's larger-than-memory state: the accountant enforcing
// its memory grant and the temp files its runs are written to. The engine
// threads one env through every blocking operator of a query; Close on any
// exit path (success, error, cancel) removes every spill file.
type SpillEnv struct {
	Mem *Accountant

	dir    string
	mu     sync.Mutex
	files  []*SpillFile
	closed bool
}

// PoolPagesFor returns 0. It sized the read-back page cache runs no longer
// go through; it stays, with NewSpillEnv's matching argument, because the
// benchmark module under bench/ is built against this signature.
func PoolPagesFor(grant int64) int { return 0 }

// PoolMetrics is empty: it carried the read-back page cache's counters. It
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
func (e *SpillEnv) newFile() (*SpillFile, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, fmt.Errorf("storage: spill env already closed")
	}
	f, err := newSpillFile(e.dir)
	if err != nil {
		return nil, err
	}
	e.files = append(e.files, f)
	return f, nil
}

// Close closes and removes every spill file. Idempotent; called on query
// completion, error, and cancellation alike, so a query aborted mid-spill
// leaves no temp files or descriptors behind.
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
		if err := f.Close(); err != nil && first == nil {
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

// RunWriter packs tuples into slotted pages appended to one spill file (one
// file per run, so a run's pages are slots 0..Pages-1 of its file). Writers
// are not safe for concurrent use; operators guard them with their own
// locks.
type RunWriter struct {
	env    *SpillEnv
	file   *SpillFile
	page   *Page
	tuples int
}

// Add appends a tuple to the run.
func (w *RunWriter) Add(t relation.Tuple) error {
	if w.file == nil {
		f, err := w.env.newFile()
		if err != nil {
			return err
		}
		w.file = f
	}
	if w.page == nil {
		w.page = NewPage()
	}
	if !w.page.Insert(t) {
		if w.page.Count() == 0 {
			return fmt.Errorf("storage: tuple of %d bytes exceeds spill page capacity", EncodedSize(t))
		}
		if err := w.flush(); err != nil {
			return err
		}
		if !w.page.Insert(t) {
			return fmt.Errorf("storage: tuple of %d bytes exceeds spill page capacity", EncodedSize(t))
		}
	}
	w.tuples++
	return nil
}

func (w *RunWriter) flush() error {
	if _, err := w.file.Append(w.page.Bytes()); err != nil {
		return err
	}
	w.env.Mem.NoteSpill(PageSize)
	w.page = NewPage()
	return nil
}

// Finish flushes the partial page and returns the completed run.
func (w *RunWriter) Finish() (Run, error) {
	if w.page != nil && w.page.Count() > 0 {
		if err := w.flush(); err != nil {
			return Run{}, err
		}
	}
	r := Run{file: w.file, tuples: w.tuples}
	if w.file != nil {
		r.pages = w.file.Pages()
	}
	return r, nil
}

// Run is a finished sequence of spilled tuples, read back in write order
// from its file.
type Run struct {
	file   *SpillFile
	pages  int
	tuples int
}

// Empty reports whether the run holds no tuples.
func (r Run) Empty() bool { return r.tuples == 0 }

// Len returns the number of tuples in the run.
func (r Run) Len() int { return r.tuples }

// Bytes returns the run's on-disk size.
func (r Run) Bytes() int64 { return int64(r.pages) * PageSize }

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

// RunCursor streams a run one page at a time: it reads pages 0..n-1 in
// order into one page buffer, validates each, and decodes its tuples into
// one slab.
type RunCursor struct {
	run    Run
	slot   int
	page   Page
	slab   relation.Slab
	tuples []relation.Tuple
	pos    int
}

// Next advances to the next tuple, reporting false at the end of the run.
func (c *RunCursor) Next() (relation.Tuple, bool, error) {
	for c.pos >= len(c.tuples) {
		if c.slot >= c.run.pages {
			return nil, false, nil
		}
		if c.page.buf == nil {
			c.page.buf = make([]byte, PageSize)
		}
		if err := c.run.file.Read(c.slot, c.page.buf); err != nil {
			return nil, false, err
		}
		c.slot++
		err := c.page.adopt()
		if err == nil {
			c.tuples, err = c.page.AppendTuples(&c.slab, c.tuples[:0])
		}
		if err != nil {
			return nil, false, err
		}
		c.pos = 0
	}
	t := c.tuples[c.pos]
	c.pos++
	return t, true, nil
}
