package relation

import (
	"fmt"
	"math/bits"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// regionShared is the room every region sets aside, beyond the string bytes
// its loader asked for, for the constants its rows share (Wisconsin's
// string4, the join pads).
const regionShared = 64

// Region is where a base relation is born: one pointer-free allocation
// holding the relation's tuple headers, its values and the bytes of its
// strings, sized up front and filled by one loop. To the collector the
// block is a single object with nothing in it to scan — a loaded relation is
// never marked word by word and filling it raises no write barrier — because
// every pointer in it is stored as an integer:
//
//	header (3 words)  address of the tuple's first value, length, capacity
//	value  (2 words)  address of a string's first byte or 0, length or integer
//
// which is exactly the memory layout of a Tuple and of a Value, so Tuples
// views the header block as an ordinary []Tuple.
//
// The invariant that makes this safe: every pointer word stored in a region
// points into that same region. The collector does not move heap objects, so
// the stored addresses stay valid for as long as the block lives, and any
// real pointer into the block — a fragment cut from Tuples, one retained
// Tuple, one string Value copied out of a tuple by Slab.Concat or Project —
// keeps all of it alive: "pin by one survivor" (see Slab) at relation
// granularity. A region is therefore deep-only, and its writers are few, all
// in this package, each one loop over whole tuples: JoinRows.Fill,
// JoinRows.Shard and WisconsinRows.Shard (whose whole relation is one shard
// of one) generate rows whose strings they copy in, Compaction.Rehome
// copies tuples from anywhere (a CSV import, a shard, a test's hand-built
// tuples) with their strings, and Alias adds a second header for a tuple
// the region already holds. JoinRows.Fill alone may run
// its loop in pieces on several goroutines at once: each piece writes a
// disjoint range of the block, and the region's cursor advances once, after
// every piece has joined. Nothing may be stored into a tuple of a region
// after its loader returned; a pointer to anything outside it would be
// invisible to the collector.
//
// A Region is not safe for concurrent use while it is filled.
type Region struct {
	hdr []uint64 // three words per tuple
	val []uint64 // two words per value
	str []byte

	nt, nv, ns int // tuples, value words and string bytes filled

	// Addresses of the block and of its three parts, as integers: the block
	// is pinned by the slices above and never moves.
	base, valAddr, strAddr uintptr
}

// NewRegion allocates a region for exactly the given number of tuples, of
// values over all of them, and of string bytes over all of those.
//
// The block is not zeroed: a strings.Builder's buffer is the one allocation
// the standard library hands out as it comes (the Slab's arena relies on the
// same), and its first byte, once written, gives the buffer's address. That
// is sound here because the collector never reads the block and Tuples only
// shows a region every header and value of which was written. Against a
// zeroed make([]uint64, n) that then skips the pointer word of integers,
// one 100 000/10 240/64 join pair took 1.79 ms instead of 2.14 and a
// 20 000-row Wisconsin relation at degree 16 2.21 instead of 2.85 (medians
// of three alternating runs each, while rows were still written value by
// value). Writing each tuple in one loop with the cursor in local variables
// then took that join pair from 1.34–1.87 ms to 0.87–0.99 ms and that
// Wisconsin relation from 1.36–1.58 ms to 1.08–1.32 ms (the fastest of 48
// and of 30 loads, three alternating runs, 2-vCPU Xeon).
func NewRegion(tuples, values, strBytes int) *Region {
	nh, nv := 3*tuples, 2*values
	words := nh + nv + (strBytes+regionShared+7)/8
	var buf strings.Builder
	buf.Grow(8 * words)
	buf.WriteByte(0)
	block := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.StringData(buf.String()))), words)
	r := &Region{hdr: block[:nh:nh], val: block[nh : nh+nv : nh+nv]}
	tail := block[nh+nv:]
	r.str = unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(tail))), 8*len(tail))
	r.base = uintptr(unsafe.Pointer(unsafe.SliceData(block)))
	r.valAddr = r.base + uintptr(8*nh)
	r.strAddr = r.valAddr + uintptr(8*nv)
	return r
}

// next returns the header and value words of the region's next tuples
// tuples holding values values, for a writer to fill, or panics if the
// region has no room for them. The writer advances nt and nv once it has
// filled them.
func (r *Region) next(tuples, values int) (hdr, val []uint64) {
	if tuples > len(r.hdr)/3-r.nt {
		panic("relation: region is out of tuples")
	}
	if 2*values > len(r.val)-r.nv {
		panic("relation: region is out of values")
	}
	return r.hdr[3*r.nt : 3*(r.nt+tuples)], r.val[r.nv : r.nv+2*values]
}

// bytes takes the next n string bytes and returns their address. The empty
// string points at the block's first byte: inside the region like any other,
// and not nil, which would make it an integer.
func (r *Region) bytes(n int) uintptr {
	if n == 0 {
		return r.base
	}
	if n > len(r.str)-r.ns {
		panic("relation: region is out of string bytes")
	}
	r.ns += n
	return r.strAddr + uintptr(r.ns-n)
}

// constant copies s into the region's string bytes and returns its address:
// a string every row a writer generates refers to.
func (r *Region) constant(s string) uintptr {
	p := r.bytes(len(s))
	if s != "" {
		copy(r.str[p-r.strAddr:], s)
	}
	return p
}

// view returns the n tuples whose headers start at header word h as a slice
// of the header block.
func (r *Region) view(h, n int) []Tuple {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*Tuple)(unsafe.Pointer(&r.hdr[h])), n)
}

// JoinRows is one relation of the paper's join pair (§5.4) as data: rows
// (k INT, id INT, pad STRING) laid out fragment by fragment. Fragment f
// holds Sizes[f] rows whose keys run f, f+Stride, f+2·Stride, … and start
// over every Cycle rows (Cycle > 0); ids count from 0 across the fragments;
// every row's pad is Pad.
type JoinRows struct {
	Sizes         []int
	Cycle, Stride int
	Pad           string
}

// joinPiece is the fewest rows a piece of a split fill covers: 1 MiB of the
// header and value words it writes, 72 bytes a row. A smaller piece would
// cost more to start and join than it saves.
const joinPiece = (1 << 20) / (8 * (3 + 6))

// Fill appends the rows to r, the pad copied in once and shared by all of
// them, and returns them. It cuts the rows into min(GOMAXPROCS, rows /
// joinPiece) pieces of contiguous rows — rows, not fragments, since under
// skew one fragment holds a large share of them — so a fill of fewer than
// 2·joinPiece rows stays one loop on the caller's goroutine. Each piece
// writes a disjoint range of the block's header and value words, all but the
// last on a goroutine of its own, and the region's cursor advances once,
// after every piece has joined. Like every loader, it runs outside any
// QueryManager's thread budget.
func (j JoinRows) Fill(r *Region) []Tuple {
	return j.fill(r, max(1, min(runtime.GOMAXPROCS(0), j.rows()/joinPiece)))
}

// rows returns how many rows the relation holds.
func (j JoinRows) rows() int {
	rows := 0
	for _, n := range j.Sizes {
		rows += n
	}
	return rows
}

// fill is Fill cut into the given number of pieces: piece p writes rows
// [p·rows/pieces, (p+1)·rows/pieces).
func (j JoinRows) fill(r *Region, pieces int) []Tuple {
	rows := j.rows()
	hdr, val := r.next(rows, 3*rows)
	w := joinWriter{j: j, hdr: hdr, val: val, addr: uint64(r.valAddr) + uint64(8*r.nv),
		pad: uint64(r.constant(j.Pad)), padLen: uint64(len(j.Pad))}
	if pieces > 1 {
		w.split(rows, pieces)
	} else {
		w.write(0, rows)
	}
	first := 3 * r.nt
	r.nt += rows
	r.nv += 6 * rows
	return r.view(first, rows)
}

// joinWriter writes a JoinRows into the header and value words a region set
// aside for it.
type joinWriter struct {
	j           JoinRows
	hdr, val    []uint64 // the words of every row
	addr        uint64   // address of the first row's values
	pad, padLen uint64
}

// split writes the rows in pieces contiguous ranges, all but the last on
// goroutines of their own, and returns once every piece has written. Each
// goroutine runs the one closure and claims its piece by number, so the
// split costs two allocations however many pieces there are.
func (w joinWriter) split(rows, pieces int) {
	s := &struct {
		joinWriter
		claimed atomic.Int64
		done    sync.WaitGroup
	}{joinWriter: w}
	piece := func() {
		p := int(s.claimed.Add(1)) - 1
		s.write(p*rows/pieces, (p+1)*rows/pieces)
		s.done.Done()
	}
	s.done.Add(pieces - 1)
	for range pieces - 1 {
		go piece()
	}
	s.write((pieces-1)*rows/pieces, rows)
	s.done.Wait()
}

// write fills rows [lo, hi). It works out row lo's fragment, key and place
// in the cycle, then runs one loop over the rows that writes each one's
// header and six value words, its cursor in local variables: the pattern is
// data, so nothing is called per row.
func (w *joinWriter) write(lo, hi int) {
	if lo == hi {
		return
	}
	sizes, cycle := w.j.Sizes, w.j.Cycle
	f, at := 0, lo // row lo is row at of fragment f
	for at >= sizes[f] {
		at -= sizes[f]
		f++
	}
	hdr, val := w.hdr[3*lo:3*hi], w.val[6*lo:6*hi]
	addr, stride, id, pad, padLen := w.addr+48*uint64(lo), uint64(w.j.Stride), uint64(lo), w.pad, w.padLen
	for ; len(hdr) > 0; f, at = f+1, 0 {
		c := at % cycle
		k := uint64(f) + uint64(c)*stride
		for range min(sizes[f]-at, len(hdr)/3) {
			h, v := hdr[:3:3], val[:6:6]
			h[0], h[1], h[2] = addr, 3, 3
			v[0], v[1], v[2], v[3], v[4], v[5] = 0, k, 0, id, pad, padLen
			hdr, val = hdr[3:], val[6:]
			addr += 48
			id++
			if c++; c == cycle {
				k, c = uint64(f), 0
			} else {
				k += stride
			}
		}
	}
}

// Shard writes the rows a shard of the relation keeps into a region of their
// own, exactly sized, the pad copied in once if any row is kept, and returns
// it with how many rows each fragment keeps: a shard's rows generated
// without the rows it drops ever existing. A row is kept when keep has the
// bit of its value in column on (0, its key k, or 1, its id) set; keep has a
// bit for every such value, or is nil, which keeps every row. The kept rows
// are those Fill writes, in the same fragments and order, or, with byID,
// placed by id modulo the number of fragments, each fragment in id order:
// how the join pair's Br places B's rows. Keys and ids are below 2³¹. Every
// row kept in Fill's order is Fill's own work, split as Fill splits it, and
// the sizes are j.Sizes. Otherwise it is one pass over the rows that records
// each kept row's key, with no branch on whether it is kept, and one loop
// over the kept rows that writes each one's header and six value words.
func (j JoinRows) Shard(on int, keep []uint64, byID bool) (*Region, []int) {
	rows, degree := j.rows(), len(j.Sizes)
	if keep == nil && !byID && rows > 0 {
		r := NewRegion(rows, 3*rows, len(j.Pad))
		j.Fill(r)
		return r, j.Sizes
	}
	sizes := make([]int, degree)
	// sel[id] is row id's key if the shard keeps it, or -1.
	sel := make([]int32, rows)
	id, g := 0, 0 // g is id modulo the degree
	for f, n := range j.Sizes {
		k, c := f, 0
		for range n {
			v := k
			if on == 1 {
				v = id
			}
			bit := 1
			if keep != nil {
				bit = int(keep[v>>6] >> (v & 63) & 1)
			}
			sel[id] = int32((k+1)*bit - 1)
			if byID {
				sizes[g] += bit
			} else {
				sizes[f] += bit
			}
			if id, g = id+1, g+1; g == degree {
				g = 0
			}
			if c++; c == j.Cycle {
				k, c = f, 0
			} else {
				k += j.Stride
			}
		}
	}
	kept := 0
	for _, n := range sizes {
		kept += n
	}
	padText := ""
	if kept > 0 {
		padText = j.Pad
	}
	r := NewRegion(kept, 3*kept, len(padText))
	pad, padLen := uint64(r.constant(padText)), uint64(len(padText))
	hdr, val := r.next(kept, 3*kept)
	addr := uint64(r.valAddr)
	// Fragment f holds the kept rows of ids [lo, hi) by step: a run of
	// Fill's rows, or every degree-th id from f.
	lo, hi, step := 0, 0, 1
	if byID {
		hi, step = rows, degree
	}
	for f := range degree {
		if byID {
			lo = f
		} else {
			lo, hi = hi, hi+j.Sizes[f]
		}
		for id := lo; id < hi; id += step {
			k := sel[id]
			if k < 0 {
				continue
			}
			h, v := hdr[:3:3], val[:6:6]
			h[0], h[1], h[2] = addr, 3, 3
			v[0], v[1], v[2], v[3], v[4], v[5] = 0, uint64(k), 0, uint64(id), pad, padLen
			hdr, val = hdr[3:], val[6:]
			addr += 48
		}
	}
	r.nt += kept
	r.nv += 6 * kept
	return r, sizes
}

// Alias stores a second header for t, a tuple of this region, as the next
// tuple: both share the values. It is how one relation is placed twice (the
// join pair's B and Br) for the price of a header per tuple.
func (r *Region) Alias(t Tuple) {
	first := uintptr(unsafe.Pointer(unsafe.SliceData(t)))
	if len(t) > 0 && (first < r.valAddr || first+uintptr(16*len(t)) > r.strAddr) {
		panic("relation: Alias of a tuple from outside the region")
	}
	h, _ := r.next(1, 0)
	h[0], h[1], h[2] = uint64(first), uint64(len(t)), uint64(len(t))
	r.nt++
}

// Tuples returns the region's tuples, in the order they were filled, as a
// view of the header block: the loader cuts the relation's fragments from
// it. It panics unless every tuple and value the region was sized for has
// been filled, which is what makes showing an unzeroed block sound.
func (r *Region) Tuples() []Tuple {
	if 3*r.nt != len(r.hdr) || r.nv != len(r.val) {
		panic("relation: region's tuples were not all filled")
	}
	return r.view(0, r.nt)
}

// StringBytes returns how many string bytes the region holds: what loaders'
// tests weigh its strings by, as they Check it.
func (r *Region) StringBytes() int { return r.ns }

// Check verifies the region's invariant word by word: every tuple header
// addresses values of this region, every string value bytes of this region,
// each with its whole extent. Two values may share bytes (a constant the
// generated rows share, the Wisconsin text table, a Compaction). Loaders'
// tests call it; a violation is a bug in package relation, the only code that
// can store a pointer word.
func (r *Region) Check() error {
	for i := 0; i < r.nt; i++ {
		p, n, c := uintptr(r.hdr[3*i]), uintptr(r.hdr[3*i+1]), uintptr(r.hdr[3*i+2])
		if values := r.valAddr + uintptr(8*r.nv); n != c || p < r.valAddr || p+16*n > values || p+16*n < p {
			return fmt.Errorf("relation: region tuple %d: header {%#x, %d, %d} outside the values [%#x, %#x)", i, p, n, c, r.valAddr, values)
		}
	}
	for k := 0; k < r.nv; k += 2 {
		p, n := uintptr(r.val[k]), uintptr(r.val[k+1])
		if p == 0 || p == r.base && n == 0 {
			continue
		}
		if p < r.strAddr || p+n > r.strAddr+uintptr(r.ns) || p+n < p {
			return fmt.Errorf("relation: region value %d: string {%#x, %d} outside the string bytes [%#x, %#x)", k/2, p, n, r.strAddr, r.strAddr+uintptr(r.ns))
		}
	}
	return nil
}

// Compaction copies some of the tuples cut from one source region into a
// region of their own and keeps the sharing the source had: string bytes two
// kept values shared in the source — a Wisconsin text that is one row's
// stringu1 and another's stringu2, a generated constant — are copied once and
// shared again. It works in the two passes of a counting copy and hashes
// nothing:
//
//   - Keep, over the tuples to keep: marks the source string bytes each one
//     refers to, one bit per byte of the source's string bytes, and counts
//     the bytes of strings from anywhere else;
//   - Region: allocates the destination, exactly sized, ranks the marks (a
//     prefix popcount gives each marked byte its offset in the destination)
//     and copies the marked runs once, in source order;
//   - Rehome, over the same tuples in the same order: copies the tuple's
//     value words as one block, then patches its string columns, each
//     string's address rewritten to its rank in the destination, or to a
//     copy made there when it lies outside the source (a CSV import's slab,
//     a hand-built tuple: every string of a compaction without a source).
//
// The schema's string columns are the only ones read or patched; a tuple may
// be shorter than the schema, its columns typed by the schema's first ones,
// which is how tests build regions of arbitrary tuples (a schema of strings
// only, where an integer is copied as it is). A string in any other column is
// a bug that Rehome refuses with a panic rather than copy a pointer out of
// the destination.
//
// partition.Partitioned.Rehome is its one caller outside tests. Nothing of
// the source is reachable from the destination, and the scratch (the marks
// and their ranks) is garbage once the last tuple is rehomed.
type Compaction struct {
	src     *Region  // nil: no string is the source's
	width   int      // the schema's columns
	strCols []int    // the schema's string columns, ascending
	intCols []int    // the others
	marks   []uint64 // bit o: a kept value refers to the source's string byte o
	rank    []int    // marked bytes before word w of marks
	foreign int      // string bytes kept values hold outside the source
	dst     *Region
}

// NewCompaction begins a compaction of tuples of the given schema out of src,
// the region they were cut from, or nil when they come from none.
func NewCompaction(src *Region, schema *Schema) Compaction {
	c := Compaction{src: src, width: schema.Len()}
	cols := make([]int, 0, c.width) // the string columns, then the others
	for i, col := range schema.cols {
		if col.Type == TString {
			cols = append(cols, i)
		}
	}
	ns := len(cols)
	for i, col := range schema.cols {
		if col.Type != TString {
			cols = append(cols, i)
		}
	}
	c.strCols, c.intCols = cols[:ns:ns], cols[ns:]
	if src != nil {
		c.marks = make([]uint64, (src.ns+63)/64)
	}
	return c
}

// offset returns where a string of n bytes at p lies in the source's string
// bytes, or -1 if it lies outside them.
func (c *Compaction) offset(p unsafe.Pointer, n int64) int {
	if c.src == nil {
		return -1
	}
	a := uintptr(p)
	if a < c.src.strAddr || a+uintptr(n) > c.src.strAddr+uintptr(c.src.ns) {
		return -1
	}
	return int(a - c.src.strAddr)
}

// Keep counts t as a tuple the compaction keeps: the source string bytes the
// values of its string columns refer to are marked, other strings counted.
func (c *Compaction) Keep(t Tuple) {
	for _, col := range c.strCols {
		if col >= len(t) {
			break
		}
		v := t[col]
		if v.p == nil || v.n == 0 {
			continue
		}
		o := c.offset(v.p, v.n)
		if o < 0 {
			c.foreign += int(v.n)
			continue
		}
		end := o + int(v.n) - 1 // the string's last byte
		first, last := o>>6, end>>6
		lead, tail := ^uint64(0)<<(o&63), ^uint64(0)>>(63-end&63)
		if first == last {
			c.marks[first] |= lead & tail
			continue
		}
		c.marks[first] |= lead
		for w := first + 1; w < last; w++ {
			c.marks[w] = ^uint64(0)
		}
		c.marks[last] |= tail
	}
}

// Region allocates the destination for the tuples kept, holding the given
// number of values over all of them, and copies the source string bytes they
// refer to into it: what Rehome then fills.
func (c *Compaction) Region(tuples, values int) *Region {
	c.rank = make([]int, len(c.marks))
	marked := 0
	for w, m := range c.marks {
		c.rank[w] = marked
		marked += bits.OnesCount64(m)
	}
	c.dst = NewRegion(tuples, values, marked+c.foreign)
	c.dst.bytes(marked)
	n := 0
	for lo := nextBit(c.marks, 0, 0); lo < 64*len(c.marks); {
		hi := nextBit(c.marks, lo, ^uint64(0))
		n += copy(c.dst.str[n:], c.src.str[lo:hi])
		lo = nextBit(c.marks, hi, 0)
	}
	return c.dst
}

// rankOf returns the number of marked bytes before source string byte o, a
// byte Keep marked: its offset in the destination.
func (c *Compaction) rankOf(o int) int {
	w, bit := o>>6, uint64(1)<<(o&63)
	if c.marks[w]&bit == 0 {
		panic("relation: compaction of a string Keep did not count")
	}
	return c.rank[w] + bits.OnesCount64(c.marks[w]&(bit-1))
}

// nextBit returns the first bit at or after i that is set in m once every
// word is XORed with flip (0 finds a set bit, all ones a clear one), or the
// number of bits in m if there is none.
func nextBit(m []uint64, i int, flip uint64) int {
	w := i >> 6
	if w >= len(m) {
		return 64 * len(m)
	}
	x := (m[w] ^ flip) >> (i & 63) << (i & 63)
	for x == 0 {
		if w++; w == len(m) {
			return 64 * len(m)
		}
		x = m[w] ^ flip
	}
	return 64*w + bits.TrailingZeros64(x)
}

// Rehome stores a deep copy of t, one of the tuples Keep counted and in the
// same order, as the next tuple of the destination: its value words copied
// as one block, then each string column's address rewritten to the string's
// rank in the destination's string bytes, or to a copy made there when it
// lies outside the source. It stores pointer words only into the
// destination's own string bytes, and nothing of t until every one of them
// is patched.
func (c *Compaction) Rehome(t Tuple) {
	r := c.dst
	if len(t) > c.width {
		panic("relation: compaction of a tuple wider than its schema")
	}
	hdr, words := r.next(1, len(t))
	copy(words, unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(t))), 2*len(t)))
	var stray uint64
	for _, col := range c.intCols {
		if col >= len(t) {
			break
		}
		stray |= words[2*col]
	}
	if stray != 0 {
		panic("relation: compaction of a string outside the schema's string columns")
	}
	for _, col := range c.strCols {
		if col >= len(t) {
			break
		}
		v := t[col]
		switch {
		case v.p == nil:
		case v.n == 0:
			words[2*col] = uint64(r.base)
		default:
			if o := c.offset(v.p, v.n); o >= 0 {
				words[2*col] = uint64(r.strAddr + uintptr(c.rankOf(o)))
			} else {
				words[2*col] = uint64(r.constant(v.str()))
			}
		}
	}
	hdr[0], hdr[1], hdr[2] = uint64(r.valAddr)+uint64(8*r.nv), uint64(len(t)), uint64(len(t))
	r.nt++
	r.nv += 2 * len(t)
}
