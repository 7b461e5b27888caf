package storage

import (
	"container/list"
	"fmt"
	"sync"
)

// PageID addresses a page: which disk (for a SpillSet, which temp file) and
// which slot on it.
type PageID struct {
	Disk int
	Slot int
}

// String renders the page id as "d<disk>:p<slot>".
func (id PageID) String() string { return fmt.Sprintf("d%d:p%d", id.Disk, id.Slot) }

// PageReader is a source of page images addressed by PageID: *SpillSet (a
// query's temp files) in the engine, an in-memory fake in the pool's tests.
type PageReader interface {
	Read(id PageID) ([]byte, error)
}

// BufferPool caches decoded pages with LRU replacement.
//
// A miss releases the pool mutex during the read and decode, holding only a
// per-page in-flight latch: concurrent hits proceed while a page is being
// read, and concurrent misses on the same page coalesce into a single read
// (latecomers wait on the latch and share the one decoded page).
type BufferPool struct {
	mu       sync.Mutex
	capacity int
	src      PageReader
	entries  map[PageID]*list.Element
	lru      *list.List // front = most recently used
	inflight map[PageID]*inflightRead
	hits     int
	misses   int
	metrics  *PoolMetrics
	closed   bool
}

// inflightRead is the single-flight latch for one page being read: the
// loader closes done after setting page or err, and every waiter shares the
// result.
type inflightRead struct {
	done chan struct{}
	page *Page
	err  error
}

type bufferEntry struct {
	id   PageID
	page *Page
}

// NewBufferPool creates a pool over the page source holding at most
// capacity pages.
func NewBufferPool(src PageReader, capacity int) (*BufferPool, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("storage: buffer pool capacity must be positive, got %d", capacity)
	}
	return &BufferPool{
		capacity: capacity,
		src:      src,
		entries:  make(map[PageID]*list.Element, capacity),
		lru:      list.New(),
		inflight: make(map[PageID]*inflightRead),
	}, nil
}

// SetMetrics attaches process-wide counters the pool mirrors its activity
// into (per-query pools feed one shared PoolMetrics for /stats).
func (b *BufferPool) SetMetrics(m *PoolMetrics) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.metrics = m
}

// Get returns the page with the given id, reading it from the source on a
// miss.
func (b *BufferPool) Get(id PageID) (*Page, error) {
	b.mu.Lock()
	if el, ok := b.entries[id]; ok {
		b.hits++
		b.metrics.hit()
		b.lru.MoveToFront(el)
		p := el.Value.(*bufferEntry).page
		b.mu.Unlock()
		return p, nil
	}
	if fl, ok := b.inflight[id]; ok {
		// Someone is already reading this page: count it as a hit (only one
		// read happens) and wait outside the lock.
		b.hits++
		b.metrics.hit()
		b.mu.Unlock()
		<-fl.done
		return fl.page, fl.err
	}
	b.misses++
	b.metrics.miss()
	fl := &inflightRead{done: make(chan struct{})}
	b.inflight[id] = fl
	b.mu.Unlock()

	img, err := b.src.Read(id)
	var p *Page
	if err == nil {
		p, err = PageFromBytes(img)
	}

	b.mu.Lock()
	delete(b.inflight, id)
	if err != nil {
		fl.err = err
		b.mu.Unlock()
		close(fl.done)
		return nil, err
	}
	fl.page = p
	if !b.closed {
		el := b.lru.PushFront(&bufferEntry{id: id, page: p})
		b.entries[id] = el
		b.metrics.resident(1)
		if b.lru.Len() > b.capacity {
			victim := b.lru.Back()
			b.lru.Remove(victim)
			delete(b.entries, victim.Value.(*bufferEntry).id)
			b.metrics.resident(-1)
		}
	}
	b.mu.Unlock()
	close(fl.done)
	return p, nil
}

// Stats returns cumulative (hits, misses).
func (b *BufferPool) Stats() (hits, misses int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.hits, b.misses
}

// Resident returns the number of cached pages.
func (b *BufferPool) Resident() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lru.Len()
}

// Close drops every cached page and returns the pool's residency to the
// shared metrics. Get on a closed pool still works (reads pass through
// uncached); per-query pools are closed when the query's spill state is
// cleaned up.
func (b *BufferPool) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	b.metrics.resident(int64(-b.lru.Len()))
	b.lru.Init()
	b.entries = make(map[PageID]*list.Element)
}
