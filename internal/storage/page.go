package storage

import (
	"encoding/binary"
	"fmt"

	"dbs3/internal/relation"
)

// PageSize is the fixed page size in bytes. 8 KB is the classic choice.
const PageSize = 8192

// Page is a slotted data page. Layout:
//
//	[0:2)   uint16 tuple count
//	[2:..)  tuple payloads, appended front to back
//	[..:]   slot directory at the tail: one uint16 offset per tuple,
//	        growing backward from the end of the page
//
// The zero value is unusable; use NewPage.
type Page struct {
	buf  []byte
	free int // offset of the first free payload byte
}

// NewPage returns an empty page.
func NewPage() *Page {
	return &Page{buf: make([]byte, PageSize), free: 2}
}

// Count returns the number of tuples on the page.
func (p *Page) Count() int { return int(binary.LittleEndian.Uint16(p.buf)) }

func (p *Page) setCount(n int) { binary.LittleEndian.PutUint16(p.buf, uint16(n)) }

// slotOffset returns the byte position of slot i's directory entry.
func (p *Page) slotOffset(i int) int { return PageSize - 2*(i+1) }

// Insert appends a tuple to the page. It reports false (without modifying
// the page) when the tuple plus its slot entry does not fit.
func (p *Page) Insert(t relation.Tuple) bool {
	need := EncodedSize(t)
	n := p.Count()
	// Payload must stay below the slot directory, which will grow by 2.
	if p.free+need > p.slotOffset(n) {
		return false
	}
	start := p.free
	out := EncodeTuple(p.buf[:p.free], t)
	p.free = len(out)
	binary.LittleEndian.PutUint16(p.buf[p.slotOffset(n):], uint16(start))
	p.setCount(n + 1)
	return true
}

// AppendTuples decodes every tuple on the page in slot order into slab and
// appends them to dst: readers of many pages share one slab (and one dst)
// across them, so a page costs no allocation of its own beyond the chunks
// the slab grows by.
func (p *Page) AppendTuples(slab *relation.Slab, dst []relation.Tuple) ([]relation.Tuple, error) {
	for i, n := 0, p.Count(); i < n; i++ {
		off := int(binary.LittleEndian.Uint16(p.buf[p.slotOffset(i):]))
		t, _, err := DecodeTupleInto(slab, p.buf[off:])
		if err != nil {
			return nil, err
		}
		dst = append(dst, t)
	}
	return dst, nil
}

// Bytes exposes the raw page image (for the disk layer). Callers must not
// mutate it.
func (p *Page) Bytes() []byte { return p.buf }

// PageFromBytes adopts a raw 8 KB image as a page.
func PageFromBytes(b []byte) (*Page, error) {
	if len(b) != PageSize {
		return nil, fmt.Errorf("storage: page image is %d bytes, want %d", len(b), PageSize)
	}
	p := &Page{buf: b}
	if err := p.adopt(); err != nil {
		return nil, err
	}
	return p, nil
}

// adopt validates the PageSize image in p.buf — every slot offset and every
// encoded length — and recomputes the free pointer past the end of the
// highest payload. Only the encoded lengths are walked; nothing is decoded
// or allocated.
func (p *Page) adopt() error {
	n := p.Count()
	dir := PageSize - 2*n // where the slot directory starts; payloads end below it
	if dir < 2 {
		return fmt.Errorf("storage: corrupt page: a directory of %d slots does not fit", n)
	}
	p.free = 2
	for i := 0; i < n; i++ {
		off := int(binary.LittleEndian.Uint16(p.buf[p.slotOffset(i):]))
		if off < 2 || off >= dir {
			return fmt.Errorf("storage: corrupt slot %d offset %d", i, off)
		}
		l, err := encodedLen(p.buf[off:dir])
		if err != nil {
			return err
		}
		if off+l > p.free {
			p.free = off + l
		}
	}
	return nil
}
