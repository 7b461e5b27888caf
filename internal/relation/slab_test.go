package relation

import "testing"

// TestSlabTuplesAreCapped: slab tuples sit back to back in one chunk, so
// each must be capped to its own span — an append on one reallocates and
// never writes into its neighbour.
func TestSlabTuplesAreCapped(t *testing.T) {
	var s Slab
	s.Reserve(6)
	a := s.Copy(Tuple{Int(1), Str("a")})
	b := s.Concat(Tuple{Int(2)}, Tuple{Str("b")})
	c := s.New(2)
	for _, tup := range []Tuple{a, b, c} {
		if len(tup) != 2 || cap(tup) != 2 {
			t.Fatalf("slab tuple len=%d cap=%d, want 2/2", len(tup), cap(tup))
		}
	}
	grown := append(a, Int(99), Int(98))
	if !a.Equal(Tuple{Int(1), Str("a")}) || !grown[:2].Equal(a) {
		t.Errorf("append changed its own tuple: %v", a)
	}
	if !b.Equal(Tuple{Int(2), Str("b")}) {
		t.Errorf("append on a slab tuple overwrote its neighbour: %v", b)
	}
	if !c.Equal(Tuple{Int(0), Int(0)}) {
		t.Errorf("New returned %v, want zero values", c)
	}
	// Past a reservation, and for tuples wider than a chunk, the slab
	// starts a new chunk instead of failing.
	wide := s.New(slabChunk + 1)
	if len(wide) != slabChunk+1 || !s.New(1).Equal(Tuple{Int(0)}) {
		t.Error("slab did not grow past its chunk")
	}
}

// TestSlabAllocations: a reserved slab fills without allocating, an
// unreserved one allocates once per chunk rather than once per tuple.
func TestSlabAllocations(t *testing.T) {
	src := Tuple{Int(1), Int(2), Str("x")}
	var s Slab
	const runs = 100
	s.Reserve((runs + 1) * len(src))
	if n := testing.AllocsPerRun(runs, func() { s.Copy(src) }); n != 0 {
		t.Errorf("reserved slab: %v allocs per tuple, want 0", n)
	}
	// AllocsPerRun rounds the average down: one allocation per chunk reads
	// 0, one per tuple would read 1.
	var chunked Slab
	if n := testing.AllocsPerRun(4*slabChunk, func() { chunked.Copy(src) }); n != 0 {
		t.Errorf("chunked slab: %v allocs per tuple, want one per chunk", n)
	}
}
