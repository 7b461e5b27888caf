package storage

import (
	"fmt"
	"os"
	"sync"

	"dbs3/internal/relation"
)

// Larger-than-memory execution: when a blocking operator exceeds its memory
// grant it writes state to spill files — real OS temp files of PageSize
// slotted pages — and reads it back through a BufferPool. A query's spill
// files form a SpillSet addressed by PageID (Disk = file index, Slot = page
// within the file).

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
	// slots behind this write's disk latency (the BufferPool.Get bug
	// class). WriteAt on distinct offsets is safe concurrently, and a
	// failed write just leaves a hole the caller never hands out —
	// spill errors abandon the whole SpillSet.
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

// Read returns the page image at slot. The bounds check happens under the
// lock, the disk read outside it, so concurrent readers never serialize
// behind one another's I/O. A Close racing the read surfaces as a read
// error (closed descriptor), which only happens on the cancel/error path
// where the result is already discarded.
func (s *SpillFile) Read(slot int) ([]byte, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("storage: read of closed spill file %s", s.name)
	}
	if slot < 0 || slot >= s.pages {
		pages := s.pages
		s.mu.Unlock()
		return nil, fmt.Errorf("storage: read of slot %d in spill file with %d pages", slot, pages)
	}
	f := s.f
	s.mu.Unlock()
	img := make([]byte, PageSize)
	if _, err := f.ReadAt(img, int64(slot)*PageSize); err != nil {
		return nil, fmt.Errorf("storage: reading spill page: %w", err)
	}
	return img, nil
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

// SpillSet is a query's collection of spill files, addressed like a disk
// array: PageID.Disk indexes the file, PageID.Slot the page within it. It
// satisfies PageReader so a BufferPool can cache read-back.
type SpillSet struct {
	dir string

	mu     sync.Mutex
	files  []*SpillFile
	closed bool
}

// NewSpillSet creates an empty set writing temp files under dir ("" =
// os.TempDir()).
func NewSpillSet(dir string) *SpillSet { return &SpillSet{dir: dir} }

// newFile opens a fresh spill file and returns it with its disk index.
func (s *SpillSet) newFile() (*SpillFile, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, 0, fmt.Errorf("storage: spill set already closed")
	}
	f, err := newSpillFile(s.dir)
	if err != nil {
		return nil, 0, err
	}
	s.files = append(s.files, f)
	return f, len(s.files) - 1, nil
}

// Read fetches the page image at id, satisfying PageReader.
func (s *SpillSet) Read(id PageID) ([]byte, error) {
	s.mu.Lock()
	if id.Disk < 0 || id.Disk >= len(s.files) {
		n := len(s.files)
		s.mu.Unlock()
		return nil, fmt.Errorf("storage: spill file %d out of range [0,%d)", id.Disk, n)
	}
	f := s.files[id.Disk]
	s.mu.Unlock()
	return f.Read(id.Slot)
}

// Close closes and removes every spill file. Idempotent; called on query
// completion, error, and cancellation alike, so a query aborted mid-spill
// leaves no temp files or descriptors behind.
func (s *SpillSet) Close() error {
	s.mu.Lock()
	files := s.files
	s.files = nil
	s.closed = true
	s.mu.Unlock()
	var first error
	for _, f := range files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SpillEnv bundles a query's larger-than-memory resources: the accountant
// enforcing its memory grant, the temp-file set, and a buffer pool for
// read-back. The engine threads one env through every blocking operator of
// a query; Close on any exit path (success, error, cancel) removes all
// spill state.
type SpillEnv struct {
	Mem  *Accountant
	Set  *SpillSet
	Pool *BufferPool
}

// PoolPagesFor sizes a query's read-back buffer pool from its memory grant:
// a quarter of the grant in pages, within [8, 256] — the pool caches spilled
// pages, so it must stay small next to the grant itself.
func PoolPagesFor(grant int64) int {
	p := int(grant / PageSize / 4)
	if p < 8 {
		p = 8
	}
	if p > 256 {
		p = 256
	}
	return p
}

// NewSpillEnv creates an env with the given memory grant (bytes), temp dir
// ("" = os.TempDir()), and read-back pool capacity in pages (<= 0 picks a
// small default).
func NewSpillEnv(dir string, grant int64, poolPages int, metrics *PoolMetrics) (*SpillEnv, error) {
	if poolPages <= 0 {
		poolPages = 16
	}
	set := NewSpillSet(dir)
	pool, err := NewBufferPool(set, poolPages)
	if err != nil {
		return nil, err
	}
	pool.SetMetrics(metrics)
	return &SpillEnv{Mem: NewAccountant(grant), Set: set, Pool: pool}, nil
}

// Close tears down the env: drops cached pages and removes every spill
// file. Idempotent.
func (e *SpillEnv) Close() error {
	if e == nil {
		return nil
	}
	e.Pool.Close()
	return e.Set.Close()
}

// Spilled returns the query's cumulative (bytes, passes).
func (e *SpillEnv) Spilled() (bytes, passes int64) {
	if e == nil {
		return 0, 0
	}
	return e.Mem.Spilled()
}

// NewRun starts a run writer in the env's set.
func (e *SpillEnv) NewRun() *RunWriter { return &RunWriter{env: e} }

// RunWriter packs tuples into slotted pages appended to one spill file (one
// file per run, so a run's pages are slots 0..Pages-1 of its file). Writers
// are not safe for concurrent use; operators guard them with their own
// locks.
type RunWriter struct {
	env    *SpillEnv
	file   *SpillFile
	disk   int
	page   *Page
	tuples int
}

// Add appends a tuple to the run.
func (w *RunWriter) Add(t relation.Tuple) error {
	if w.file == nil {
		f, disk, err := w.env.Set.newFile()
		if err != nil {
			return err
		}
		w.file, w.disk = f, disk
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
	r := Run{env: w.env, disk: w.disk, tuples: w.tuples}
	if w.file != nil {
		r.pages = w.file.Pages()
	}
	return r, nil
}

// Run is a finished sequence of spilled tuples, readable in write order
// through the env's buffer pool.
type Run struct {
	env    *SpillEnv
	disk   int
	pages  int
	tuples int
}

// Empty reports whether the run holds no tuples.
func (r Run) Empty() bool { return r.tuples == 0 }

// Len returns the number of tuples in the run.
func (r Run) Len() int { return r.tuples }

// Bytes returns the run's on-disk size.
func (r Run) Bytes() int64 { return int64(r.pages) * PageSize }

// eachPage calls f for every page of the run in write order, reading
// through the env's buffer pool.
func (r Run) eachPage(f func(p *Page) error) error {
	for slot := 0; slot < r.pages; slot++ {
		p, err := r.env.Pool.Get(PageID{Disk: r.disk, Slot: slot})
		if err != nil {
			return err
		}
		if err := f(p); err != nil {
			return err
		}
	}
	return nil
}

// Each calls f for every tuple in write order. The tuples are decoded into
// one slab for the whole run and f may keep them; like any slab tuple, one
// that is kept pins the chunk and arena it shares with its neighbours.
func (r Run) Each(f func(t relation.Tuple) error) error {
	var slab relation.Slab
	var page []relation.Tuple
	return r.eachPage(func(p *Page) (err error) {
		if page, err = p.AppendTuples(&slab, page[:0]); err != nil {
			return err
		}
		for _, t := range page {
			if err := f(t); err != nil {
				return err
			}
		}
		return nil
	})
}

// All reads the whole run back into memory, into one slab.
func (r Run) All() ([]relation.Tuple, error) {
	var slab relation.Slab
	out := make([]relation.Tuple, 0, r.tuples)
	err := r.eachPage(func(p *Page) (err error) {
		out, err = p.AppendTuples(&slab, out)
		return err
	})
	return out, err
}

// Cursor returns a streaming reader over the run for k-way merges.
func (r Run) Cursor() *RunCursor { return &RunCursor{run: r} }

// RunCursor streams a run one page at a time, decoding into one slab.
type RunCursor struct {
	run    Run
	slot   int
	slab   relation.Slab
	tuples []relation.Tuple
	pos    int
}

// Next advances to the next tuple, reporting false at the end of the run or
// on error (check Err).
func (c *RunCursor) Next() (relation.Tuple, bool, error) {
	for c.pos >= len(c.tuples) {
		if c.slot >= c.run.pages {
			return nil, false, nil
		}
		p, err := c.run.env.Pool.Get(PageID{Disk: c.run.disk, Slot: c.slot})
		if err != nil {
			return nil, false, err
		}
		c.slot++
		if c.tuples, err = p.AppendTuples(&c.slab, c.tuples[:0]); err != nil {
			return nil, false, err
		}
		c.pos = 0
	}
	t := c.tuples[c.pos]
	c.pos++
	return t, true, nil
}
