package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbs3/internal/relation"
)

func pageWith(t *testing.T, v int64) []byte {
	t.Helper()
	p := NewPage()
	if !p.Insert(relation.NewTuple(relation.Int(v))) {
		t.Fatal("insert failed")
	}
	return p.Bytes()
}

// memReader is an in-memory PageReader that counts its reads.
type memReader struct {
	pages [][]byte
	reads int
}

func (r *memReader) write(img []byte) PageID {
	r.pages = append(r.pages, img)
	return PageID{Slot: len(r.pages) - 1}
}

func (r *memReader) Read(id PageID) ([]byte, error) {
	if id.Disk != 0 || id.Slot < 0 || id.Slot >= len(r.pages) {
		return nil, fmt.Errorf("memReader: no page %v", id)
	}
	r.reads++
	return r.pages[id.Slot], nil
}

func TestBufferPoolHitMiss(t *testing.T) {
	a := &memReader{}
	id0 := a.write(pageWith(t, 10))
	id1 := a.write(pageWith(t, 20))
	b, err := NewBufferPool(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get(id0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get(id0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get(id1); err != nil {
		t.Fatal(err)
	}
	hits, misses := b.Stats()
	if hits != 1 || misses != 2 {
		t.Errorf("stats = %d hits %d misses, want 1/2", hits, misses)
	}
	if b.Resident() != 2 {
		t.Errorf("Resident = %d", b.Resident())
	}
}

func TestBufferPoolEvictsLRU(t *testing.T) {
	a := &memReader{}
	ids := make([]PageID, 3)
	for i := range ids {
		ids[i] = a.write(pageWith(t, int64(i)))
	}
	b, _ := NewBufferPool(a, 2)
	b.Get(ids[0])
	b.Get(ids[1])
	b.Get(ids[0]) // 0 now MRU, 1 is LRU
	b.Get(ids[2]) // must evict 1
	reads0 := a.reads
	b.Get(ids[0]) // hit
	b.Get(ids[1]) // miss: was evicted
	if a.reads != reads0+1 {
		t.Errorf("expected exactly one extra source read, got %d", a.reads-reads0)
	}
	if b.Resident() != 2 {
		t.Errorf("Resident = %d, want capacity 2", b.Resident())
	}
}

func TestBufferPoolContentCorrect(t *testing.T) {
	a := &memReader{}
	id := a.write(pageWith(t, 77))
	b, _ := NewBufferPool(a, 1)
	p, err := b.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	tup, err := p.Tuple(0)
	if err != nil || tup[0].AsInt() != 77 {
		t.Errorf("tuple = %v, %v", tup, err)
	}
}

// gatedReader is a PageReader whose reads block until the test releases
// them, exposing the window where a miss's I/O is in flight.
type gatedReader struct {
	gate  chan struct{}
	data  map[PageID][]byte
	reads atomic.Int32
}

func (r *gatedReader) Read(id PageID) ([]byte, error) {
	r.reads.Add(1)
	<-r.gate
	b, ok := r.data[id]
	if !ok {
		return nil, fmt.Errorf("gatedReader: no page %v", id)
	}
	return b, nil
}

// TestBufferPoolHitDuringMiss is the regression test for the lock-across-I/O
// bug: Get used to hold the pool mutex through the source read, so a hit on
// a resident page stalled behind an unrelated miss's disk I/O. Now the miss
// releases the lock during the read (a per-page latch keeps it single
// flight), so the hit must complete while the miss is still blocked — and a
// second reader of the missing page must wait on the latch rather than issue
// a duplicate read.
func TestBufferPoolHitDuringMiss(t *testing.T) {
	id0, id1 := PageID{Disk: 0, Slot: 0}, PageID{Disk: 0, Slot: 1}
	r := &gatedReader{gate: make(chan struct{}, 1), data: map[PageID][]byte{
		id0: pageWith(t, 10),
		id1: pageWith(t, 20),
	}}
	b, err := NewBufferPool(r, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Preload id0: one token lets exactly this read through.
	r.gate <- struct{}{}
	if _, err := b.Get(id0); err != nil {
		t.Fatal(err)
	}

	// Miss on id1 blocks inside the source read, holding no pool lock.
	missDone := make(chan error, 1)
	go func() {
		_, err := b.Get(id1)
		missDone <- err
	}()
	for r.reads.Load() < 2 {
		time.Sleep(time.Millisecond)
	}

	// The resident page must be servable while that I/O is in flight.
	hitDone := make(chan error, 1)
	go func() {
		_, err := b.Get(id0)
		hitDone <- err
	}()
	select {
	case err := <-hitDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("hit on resident page blocked behind an in-flight miss")
	}

	// Concurrent waiters on the missing page coalesce onto the one read.
	const waiters = 4
	var wg sync.WaitGroup
	waitErrs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := b.Get(id1)
			if err == nil && p == nil {
				err = fmt.Errorf("nil page without error")
			}
			waitErrs[i] = err
		}(i)
	}
	time.Sleep(10 * time.Millisecond) // let the waiters reach the latch
	r.gate <- struct{}{}              // release the single in-flight read
	wg.Wait()
	if err := <-missDone; err != nil {
		t.Fatal(err)
	}
	for i, err := range waitErrs {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	if n := r.reads.Load(); n != 2 {
		t.Errorf("source reads = %d, want 2 (preload + single-flight miss)", n)
	}
	hits, misses := b.Stats()
	if misses != 2 {
		t.Errorf("misses = %d, want 2", misses)
	}
	if hits < waiters+1 {
		t.Errorf("hits = %d, want >= %d (resident hit + latch waiters)", hits, waiters+1)
	}
}

func TestBufferPoolErrors(t *testing.T) {
	a := &memReader{}
	if _, err := NewBufferPool(a, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	b, _ := NewBufferPool(a, 1)
	if _, err := b.Get(PageID{Disk: 0, Slot: 99}); err == nil {
		t.Error("missing page accepted")
	}
}
