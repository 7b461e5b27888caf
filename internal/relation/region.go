package relation

import (
	"fmt"
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
// are copied in (Str, Shared, Rehome) and second headers for tuples it
// already holds (Alias). Nothing may be stored into a tuple of a region after
// its loader returned; a pointer to anything outside it would be invisible to
// the collector.
//
// Operators, aggregates, the CSV import (whose row count is unknown while it
// streams) and spill read-back build their tuples in a Slab instead. A
// Region is not safe for concurrent use.
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
// of the two functions that store a pointer word; its callers pass an address
// inside the region.
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

// ref stores a string of n bytes at address p as the next value: the other
// function that stores a pointer word.
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

// Rehome stores a deep copy of t as the next tuple: values and string bytes
// both live in this region afterwards and nothing of where t came from is
// pinned. Whoever keeps a minority of a relation for long while the rest
// dies (Database.ShardRelation keeps one shard) re-homes what it keeps.
func (r *Region) Rehome(t Tuple) {
	r.Begin(len(t))
	for _, v := range t {
		if v.p == nil {
			r.Int(v.n)
		} else {
			r.Str(v.str())
		}
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

// Check verifies the region's invariant word by word: every tuple header
// addresses values of this region, every string value bytes of this region,
// each with its whole extent. Two values may share bytes (Shared, the
// Wisconsin text table). Loaders' tests call it; a violation is a bug in
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
