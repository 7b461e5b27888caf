package relation

import (
	"fmt"
	"math/bits"
	"strings"
	"unsafe"
)

// regionShared is the room every region sets aside, beyond the string bytes
// its loader asked for, for the constants its tuples share (Shared).
const regionShared = 64

// Region is where a base relation is born: one pointer-free allocation
// holding the relation's tuple headers, its values and the bytes of its
// strings, sized up front and filled tuple by tuple. To the collector the
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
// granularity. A region is therefore deep-only: integers, strings whose bytes
// are copied in (Str, Shared, a Compaction) and second headers for tuples it
// already holds (Alias). Nothing may be stored into a tuple of a region after
// its loader returned; a pointer to anything outside it would be invisible to
// the collector.
//
// Every base relation a loader registers lives in one: generators fill theirs
// row by row, and partition.Partitioned.Rehome copies any other (a CSV
// import, a shard) into one through a Compaction. Operators, aggregates and
// spill read-back build their tuples in a Slab instead. A Region is not safe
// for concurrent use while it is filled.
type Region struct {
	hdr []uint64 // three words per tuple
	val []uint64 // two words per value
	str []byte

	nt, nv, ns int // tuples begun, value words written, string bytes written
	end        int // nv once the tuple being filled is complete

	// Addresses of the block and of its three parts, as integers: the block
	// is pinned by the slices above and never moves.
	base, valAddr, strAddr uintptr

	shared    []sharedString
	sharedBuf [4]sharedString

	// texts is the address of the Wisconsin text table once the region's
	// first WisconsinRows.Row has rendered it into the string bytes, else 0.
	texts uintptr
}

// sharedString is a constant Shared has copied in: the caller's string and
// the address of the region's copy.
type sharedString struct {
	src  string
	addr uintptr
}

// NewRegion allocates a region for exactly the given number of tuples, of
// values over all of them, and of string bytes over all of those.
//
// The block is not zeroed: a strings.Builder's buffer is the one allocation
// the standard library hands out as it comes (the Slab's arena relies on the
// same), and its first byte, once written, gives the buffer's address. That
// is sound here because the collector never reads the block and Tuples only
// shows words that were stored — every header begun and, it checks, every
// value of it. Against a zeroed make([]uint64, n) that then skips the pointer
// word of integers, engine-skew's set-up (two join pairs, the fastest of 40)
// took 2.86 ms instead of 3.55, one 100k/10 240/64 join pair 1.79 instead of
// 2.14 and a 20 000-row Wisconsin relation at degree 16 2.21 instead of 2.85
// (medians of three alternating runs each).
func NewRegion(tuples, values, strBytes int) *Region {
	nh, nv := 3*tuples, 2*values
	words := nh + nv + (strBytes+regionShared+7)/8
	var buf strings.Builder
	buf.Grow(8 * words)
	buf.WriteByte(0)
	block := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.StringData(buf.String()))), words)
	r := &Region{hdr: block[:nh:nh], val: block[nh : nh+nv : nh+nv]}
	r.shared = r.sharedBuf[:0]
	tail := block[nh+nv:]
	r.str = unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(tail))), 8*len(tail))
	r.base = uintptr(unsafe.Pointer(unsafe.SliceData(block)))
	r.valAddr = r.base + uintptr(8*nh)
	r.strAddr = r.valAddr + uintptr(8*nv)
	return r
}

// Begin begins the next tuple, of n values: the n calls of Int, Str or
// Shared that follow fill it in column order.
func (r *Region) Begin(n int) {
	r.header(r.valAddr+uintptr(8*r.nv), n)
	r.end = r.nv + 2*n
}

// header stores the next tuple header: n values at address first. It is one
// of the three places that store a pointer word (with ref and
// Compaction.Rehome); its callers pass an address inside the region.
func (r *Region) header(first uintptr, n int) {
	if r.nv != r.end {
		panic("relation: region tuple begun before the last one was filled")
	}
	h := r.hdr[3*r.nt:][:3]
	h[0], h[1], h[2] = uint64(first), uint64(n), uint64(n)
	r.nt++
}

// Int stores an integer as the next value.
func (r *Region) Int(v int64) {
	r.val[r.nv], r.val[r.nv+1] = 0, uint64(v)
	r.nv += 2
}

// ref stores a string of n bytes at address p as the next value: another of
// the places that store a pointer word.
func (r *Region) ref(p uintptr, n int) {
	r.val[r.nv], r.val[r.nv+1] = uint64(p), uint64(n)
	r.nv += 2
}

// Str stores a string as the next value, its bytes copied into the region.
func (r *Region) Str(s string) {
	r.ref(r.bytes(len(s)), len(s))
	copy(r.str[r.ns-len(s):], s)
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

// Shared stores s as the next value like Str, but copies its bytes in only
// the first time the region sees that text: for the handful of constants a
// generator repeats in every row (Wisconsin's string4, the join pads), which
// would otherwise either be copied per row or point outside the region. A
// constant is first recognized by where the caller holds it, which costs a
// row two compares and no call.
func (r *Region) Shared(s string) {
	for i := range r.shared {
		if c := &r.shared[i]; unsafe.StringData(c.src) == unsafe.StringData(s) && len(c.src) == len(s) {
			r.ref(c.addr, len(s))
			return
		}
	}
	for i := range r.shared {
		if c := &r.shared[i]; c.src == s {
			r.ref(c.addr, len(s))
			return
		}
	}
	r.Str(s)
	if len(s) > 0 {
		r.shared = append(r.shared, sharedString{src: s, addr: r.strAddr + uintptr(r.ns-len(s))})
	}
}

// Alias stores a second header for t, a tuple of this region, as the next
// tuple: both share the values. It is how one relation is placed twice (the
// join pair's B and Br) for the price of a header per tuple.
func (r *Region) Alias(t Tuple) {
	first := uintptr(unsafe.Pointer(unsafe.SliceData(t)))
	if len(t) > 0 && (first < r.valAddr || first+uintptr(16*len(t)) > r.strAddr) {
		panic("relation: Alias of a tuple from outside the region")
	}
	r.header(first, len(t))
}

// Tuples returns the tuples begun so far, in the order they were, as a view
// of the header block: the loader cuts the relation's fragments from it.
func (r *Region) Tuples() []Tuple {
	if r.nv != r.end {
		panic("relation: region's last tuple was not filled")
	}
	if r.nt == 0 {
		return nil
	}
	return unsafe.Slice((*Tuple)(unsafe.Pointer(unsafe.SliceData(r.hdr))), r.nt)
}

// StringBytes returns how many string bytes the region holds: what loaders'
// tests weigh its strings by, as they Check it.
func (r *Region) StringBytes() int { return r.ns }

// Check verifies the region's invariant word by word: every tuple header
// addresses values of this region, every string value bytes of this region,
// each with its whole extent. Two values may share bytes (Shared, the
// Wisconsin text table, a Compaction). Loaders' tests call it; a violation is a bug in
// package relation, the only code that can store a pointer word.
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
// stringu1 and another's stringu2, a Shared constant — are copied once and
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
//     values word for word and gives each string the address of its rank
//     in the destination, or copies it in on its own when it lies outside
//     the source (a CSV import's slab, a hand-built tuple: every string of
//     a compaction without a source).
//
// Keep reads only the schema's string columns. A string anywhere else in a
// tuple is a bug that Rehome never turns into a pointer out of the
// destination: it panics, or copies the string in if there is room.
//
// partition.Partitioned.Rehome is its one caller. Nothing of the source is
// reachable from the destination, and the scratch (the marks and their
// ranks) is garbage once the last tuple is rehomed.
type Compaction struct {
	src     *Region  // nil: no string is the source's
	strCols []int    // the schema's string columns
	marks   []uint64 // bit o: a kept value refers to the source's string byte o
	rank    []int    // marked bytes before word w of marks
	foreign int      // string bytes kept values hold outside the source
	dst     *Region
}

// NewCompaction begins a compaction of tuples of the given schema out of src,
// the region they were cut from, or nil when they come from none.
func NewCompaction(src *Region, schema *Schema) Compaction {
	c := Compaction{src: src}
	for i, col := range schema.cols {
		if col.Type == TString {
			c.strCols = append(c.strCols, i)
		}
	}
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
// same order, as the next tuple of the destination: its values word for
// word, each string's pointer word rewritten to the string's rank in the
// destination's string bytes, or to a copy made there when it lies outside
// the source. It is the third place a region stores pointer words (with
// header and ref), each one into the destination's own string bytes.
func (c *Compaction) Rehome(t Tuple) {
	r := c.dst
	r.Begin(len(t))
	words := r.val[r.nv : r.nv+2*len(t)]
	for k, v := range t {
		words[2*k], words[2*k+1] = 0, uint64(v.n)
		if v.p == nil {
			continue
		}
		if v.n == 0 {
			words[2*k] = uint64(r.base)
		} else if o := c.offset(v.p, v.n); o >= 0 {
			words[2*k] = uint64(r.strAddr + uintptr(c.rankOf(o)))
		} else {
			words[2*k] = uint64(r.bytes(int(v.n)))
			copy(r.str[r.ns-int(v.n):], v.str())
		}
	}
	r.nv += 2 * len(t)
}
