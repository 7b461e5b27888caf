package relation

// slabChunk is the value capacity of a chunk a Slab allocates when it was not
// told how much is coming.
const slabChunk = 4096

// Slab allocates tuples as capped sub-slices of shared []Value chunks, so a
// run of tuples costs one allocation per chunk instead of one per tuple. It
// is the one bulk-load path of base data (generators, CSV import, shard
// compaction) and the join operators' result arena. The zero Slab is ready
// to use; a Slab is not safe for concurrent use.
//
// Ownership: a slab tuple is an ordinary immutable Tuple and may be retained
// by anyone, but it keeps its whole chunk alive. A holder that discards most
// of a slab's tuples and keeps the rest for long must copy the survivors
// into a fresh slab (Database.ShardRelation does) or the discarded ones are
// never reclaimed. The Slab itself only ever hands out space past the tuples
// it already returned and never rewrites one, so it may be dropped, pooled
// or reused while its tuples live on.
type Slab struct {
	free []Value // unused tail of the current chunk
}

// Reserve starts one exactly-sized chunk unless the current one still has
// room for that many values: for loaders that know their cardinality up
// front and want one allocation and no tail slack.
func (s *Slab) Reserve(values int) {
	if len(s.free) < values {
		s.free = make([]Value, values)
	}
}

// New returns a tuple of n zero values (Int(0)) for the caller to fill. Its
// capacity is capped to n: an append on it reallocates instead of writing
// into the neighbouring tuple.
func (s *Slab) New(n int) Tuple {
	if len(s.free) < n {
		s.free = make([]Value, max(n, slabChunk))
	}
	t := s.free[:n:n]
	s.free = s.free[n:]
	return Tuple(t)
}

// Concat returns a ++ b as a slab tuple: the slab form of Tuple.Concat, used
// by join operators to build result tuples.
func (s *Slab) Concat(a, b Tuple) Tuple {
	t := s.New(len(a) + len(b))
	copy(t, a)
	copy(t[len(a):], b)
	return t
}

// Copy returns a slab copy of t.
func (s *Slab) Copy(t Tuple) Tuple { return s.Concat(t, nil) }
