package storage

import (
	"bytes"
	"encoding/binary"
	"testing"

	"dbs3/internal/race"
	"dbs3/internal/relation"
)

// fullPage returns a page filled with Wisconsin tuples (three string columns
// each) and the tuples that fit.
func fullPage(t testing.TB) (*Page, []relation.Tuple) {
	t.Helper()
	rel := relation.Wisconsin("w", 64, 1)
	p := NewPage()
	n := 0
	for n < len(rel.Tuples) && p.Insert(rel.Tuples[n]) {
		n++
	}
	if n < 8 || n == len(rel.Tuples) {
		t.Fatalf("%d tuples fit on the page: the test wants a full page of many", n)
	}
	return p, rel.Tuples[:n]
}

// TestPageFromBytesWalksLengths: adopting an image decodes nothing — it
// allocates the Page and that is all, however many tuples and strings the
// image holds — and still leaves the free pointer where inserts can go on.
func TestPageFromBytesWalksLengths(t *testing.T) {
	orig, tuples := fullPage(t)
	img := bytes.Clone(orig.Bytes())
	var p *Page
	if n := testing.AllocsPerRun(20, func() {
		var err error
		if p, err = PageFromBytes(img); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("PageFromBytes of %d tuples: %v allocations, want 1", len(tuples), n)
	}
	got, err := p.Tuples()
	if err != nil || len(got) != len(tuples) {
		t.Fatalf("%d tuples, err %v", len(got), err)
	}
	for i := range got {
		if !got[i].Equal(tuples[i]) {
			t.Fatalf("slot %d: %v", i, got[i])
		}
	}
	if p.free != orig.free {
		t.Errorf("adopted page's free pointer is %d, the page was written up to %d", p.free, orig.free)
	}
}

// TestPageFromBytesRejectsCorruptImages: every way an image can lie about
// its slots is an error, never a panic and never a read past the image.
func TestPageFromBytesRejectsCorruptImages(t *testing.T) {
	orig, tuples := fullPage(t)
	good := orig.Bytes()
	slot := func(i int) int { return PageSize - 2*(i+1) }
	for name, corrupt := range map[string]func(img []byte){
		"more slots than fit":       func(img []byte) { binary.LittleEndian.PutUint16(img, PageSize) },
		"slot inside the count":     func(img []byte) { binary.LittleEndian.PutUint16(img[slot(0):], 1) },
		"slot inside the directory": func(img []byte) { binary.LittleEndian.PutUint16(img[slot(1):], uint16(slot(2))) },
		"slot past the page":        func(img []byte) { binary.LittleEndian.PutUint16(img[slot(0):], 0xffff) },
		"string runs into the directory": func(img []byte) {
			// the last tuple's first string claims to be a page long
			off := int(binary.LittleEndian.Uint16(img[slot(len(tuples)-1):]))
			binary.LittleEndian.PutUint32(img[off+2+13*9+1:], PageSize)
		},
		"unknown tag": func(img []byte) { img[2+2] = 9 },
	} {
		img := bytes.Clone(good)
		corrupt(img)
		if _, err := PageFromBytes(img); err == nil {
			t.Errorf("%s: image accepted", name)
		}
	}
}

// TestReadBackAllocatesPerPage pins where read-back's allocations go: a run
// of string-carrying tuples read through a pool too small to cache it (every
// page a miss) costs the pool's bookkeeping per page and a chunk now and
// then — not an allocation per tuple, let alone one per string, and not
// twice (once to adopt the page, once to read it).
func TestReadBackAllocatesPerPage(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	rel := relation.Wisconsin("w", 5_000, 1)
	env, err := NewSpillEnv(t.TempDir(), 1<<20, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	w := env.NewRun()
	for _, tup := range rel.Tuples {
		if err := w.Add(tup); err != nil {
			t.Fatal(err)
		}
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	pages := float64(run.Bytes() / PageSize)
	for name, read := range map[string]func() (int, error){
		"Each": func() (n int, err error) {
			err = run.Each(func(relation.Tuple) error { n++; return nil })
			return n, err
		},
		"All": func() (int, error) {
			all, err := run.All()
			return len(all), err
		},
		"Cursor": func() (n int, err error) {
			c := run.Cursor()
			for {
				_, ok, err := c.Next()
				if err != nil || !ok {
					return n, err
				}
				n++
			}
		},
	} {
		allocs := testing.AllocsPerRun(3, func() {
			if n, err := read(); err != nil || n != run.Len() {
				t.Fatalf("%s read %d of %d tuples: %v", name, n, run.Len(), err)
			}
		})
		// Per missed page: the image, the Page, the in-flight latch and its
		// channel, the LRU entry and its list element.
		if limit := 7*pages + 64; allocs > limit {
			t.Errorf("%s: %v allocations for %d tuples on %v pages, want at most %v", name, allocs, run.Len(), pages, limit)
		}
		t.Logf("%s: %.3f allocations per tuple, %.2f per page", name, allocs/float64(run.Len()), allocs/pages)
	}
}

// TestReadBackThroughSmallAndWarmPools: a relation read back through a pool
// far smaller than it (every page evicted before it could be reused) comes
// back as the same multiset, and a second read through a pool that holds it
// all is served without one new miss.
func TestReadBackThroughSmallAndWarmPools(t *testing.T) {
	rel := relation.Wisconsin("w", 3_000, 5)
	for name, poolPages := range map[string]int{"small": 3, "warm": 1024} {
		env, err := NewSpillEnv(t.TempDir(), 0, poolPages, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer env.Close()
		w := env.NewRun()
		for _, tup := range rel.Tuples {
			if err := w.Add(tup); err != nil {
				t.Fatal(err)
			}
		}
		run, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		pages := int(run.Bytes() / PageSize)
		if pages <= 3 {
			t.Fatalf("the run is only %d pages: it must outgrow the small pool", pages)
		}
		first, err := run.All()
		if err != nil {
			t.Fatal(err)
		}
		if got := (&relation.Relation{Schema: rel.Schema, Tuples: first}); !got.EqualMultiset(rel) {
			t.Errorf("%s pool: the relation read back differs from the one written", name)
		}
		hits0, misses0 := env.Pool.Stats()
		if misses0 < pages {
			t.Errorf("%s pool: %d misses reading %d cold pages", name, misses0, pages)
		}
		if _, err := run.All(); err != nil {
			t.Fatal(err)
		}
		hits1, misses1 := env.Pool.Stats()
		if name == "small" {
			if misses1-misses0 < pages {
				t.Errorf("small pool: re-reading %d pages through %d missed only %d times", pages, poolPages, misses1-misses0)
			}
		} else if misses1 != misses0 || hits1-hits0 < pages {
			t.Errorf("warm pool: re-read took %d new misses and %d hits over %d pages", misses1-misses0, hits1-hits0, pages)
		}
	}
}

// FuzzDecodeTupleInto feeds arbitrary bytes to the read-back path, both as
// one encoded tuple and as a page image: whatever they hold, the decoders
// return an error or tuples that re-encode to the bytes they consumed —
// they never panic and never read past the buffer.
func FuzzDecodeTupleInto(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, tagInt, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{2, 0, tagString, 3, 0, 0, 0, 'a', 'b', 'c', tagString, 0, 0, 0, 0})
	f.Add([]byte{1, 0, tagString, 0xff, 0xff, 0xff, 0xff, 'x'})
	f.Add([]byte{0xff, 0xff, tagInt})
	full, _ := fullPage(f)
	f.Add(full.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		var slab relation.Slab
		if tup, n, err := DecodeTupleInto(&slab, data); err == nil {
			if n > len(data) || n != EncodedSize(tup) || !bytes.Equal(EncodeTuple(nil, tup), data[:n]) {
				t.Fatalf("decoded %v from %d of %d bytes, which re-encodes differently", tup, n, len(data))
			}
		}
		page := make([]byte, PageSize)
		copy(page, data)
		if len(data) > 2 { // keep the fuzzer's tail bytes as the slot directory
			copy(page[PageSize-len(data)/2:], data[len(data)-len(data)/2:])
		}
		p, err := PageFromBytes(page)
		if err != nil {
			return
		}
		tuples, err := p.AppendTuples(&slab, nil)
		if err != nil {
			t.Fatalf("an adopted page failed to decode: %v", err)
		}
		if len(tuples) != p.Count() {
			t.Fatalf("%d tuples on a page of %d", len(tuples), p.Count())
		}
	})
}
