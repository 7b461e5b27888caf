package relation

import "strings"

// A Slab grows by chunks that double from the minimum to the maximum size
// below, so a slab that ends up holding three tuples costs a kilobyte and one
// that holds a relation costs an allocation per 64 KiB. Both limits are the
// same number of bytes for values (16 bytes each) and for string bytes.
const (
	slabChunk    = 4096 // values
	slabChunkMin = 64
	arenaChunk   = slabChunk * 16 // bytes
	arenaMin     = slabChunkMin * 16
)

// Slab is where the tuples a query makes are born. It allocates tuples as
// capped sub-slices of shared []Value chunks and the bytes of their strings
// out of shared arena chunks, so a run of tuples costs one allocation per
// chunk instead of one per tuple and one per string. Joins, projections and
// aggregates carve their results with Concat and Project, spill read-back
// decodes runs into one, and the CSV reader, which learns its row count only
// at the end, streams into one that its loader then copies into a Region.
// Every base relation lives in a Region. The zero Slab is ready to use; a
// Slab is not safe for concurrent use.
//
// Ownership: a slab tuple is an ordinary immutable Tuple and may be retained
// by anyone, but one survivor pins its whole value chunk, and one arena
// string pins its whole arena chunk. Concat and Project are shallow —
// the new tuple's strings stay where the source's were, and a string copied
// out of a region tuple pins that whole region — which is right for results
// that live no longer than their inputs or that all live equally long. A
// holder that keeps a minority of what it reads for long while the rest dies
// must copy what it keeps, as an aggregate keeps one group key of many input
// tuples and takes it with RehomeValue; otherwise the discarded tuples and
// strings are never reclaimed. The Slab itself only ever hands out space past
// what it already returned and never rewrites it, so it may be dropped,
// pooled or reused while its tuples live on.
type Slab struct {
	free []Value // unused tail of the current value chunk
	// arena is the current string-byte chunk: what has been written to it
	// is handed out, the rest of its capacity is free. A strings.Builder
	// because bytes written to one are immutable from then on, its String
	// shares them without a copy, and it allocates without zeroing.
	arena strings.Builder
	// sizes of the last chunks the slab sized itself; the next ones double.
	lastValues, lastBytes int
}

// New returns a tuple of n zero values (Int(0)) for the caller to fill. Its
// capacity is capped to n: an append on it reallocates instead of writing
// into the neighbouring tuple.
func (s *Slab) New(n int) Tuple {
	if len(s.free) < n {
		s.lastValues = min(max(2*s.lastValues, slabChunkMin), slabChunk)
		s.free = make([]Value, max(n, s.lastValues))
	}
	t := s.free[:n:n]
	s.free = s.free[n:]
	return Tuple(t)
}

// room makes sure the current arena chunk can take n more bytes, abandoning
// what is left of it for a new one if it cannot.
func (s *Slab) room(n int) {
	if s.arena.Cap()-s.arena.Len() < n {
		s.lastBytes = min(max(2*s.lastBytes, arenaMin), arenaChunk)
		s.arena = strings.Builder{}
		s.arena.Grow(max(n, s.lastBytes))
	}
}

// written returns what was written to the arena from offset off on as a
// string Value sharing those bytes.
func (s *Slab) written(off int) Value { return Str(s.arena.String()[off:]) }

// Str returns a string Value whose bytes are a copy of text in the slab's
// arena.
func (s *Slab) Str(text string) Value {
	s.room(len(text))
	off := s.arena.Len()
	s.arena.WriteString(text)
	return s.written(off)
}

// StrBytes is Str for text held as bytes (a decoder's input buffer).
func (s *Slab) StrBytes(text []byte) Value {
	s.room(len(text))
	off := s.arena.Len()
	s.arena.Write(text)
	return s.written(off)
}

// Concat returns a ++ b as a slab tuple sharing their strings: how join
// operators build result tuples.
func (s *Slab) Concat(a, b Tuple) Tuple {
	t := s.New(len(a) + len(b))
	copy(t, a)
	copy(t[len(a):], b)
	return t
}

// Project returns the given column positions of t as a slab tuple sharing
// t's strings.
func (s *Slab) Project(t Tuple, cols []int) Tuple {
	out := s.New(len(cols))
	for i, c := range cols {
		out[i] = t[c]
	}
	return out
}

// RehomeValue returns v with its string bytes, if it has any, copied into
// the slab's arena, so that keeping it pins nothing of where it came from.
func (s *Slab) RehomeValue(v Value) Value {
	if v.p == nil {
		return v
	}
	return s.Str(v.str())
}
