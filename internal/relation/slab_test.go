package relation

import (
	"runtime"
	"strings"
	"testing"

	"dbs3/internal/race"
)

// TestSlabTuplesAreCapped: slab tuples sit back to back in one chunk, so
// each must be capped to its own span — an append on one reallocates and
// never writes into its neighbour.
func TestSlabTuplesAreCapped(t *testing.T) {
	var s Slab
	s.Reserve(6, 0)
	a := s.Concat(Tuple{Int(1), Str("a")}, nil)
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
	src := Tuple{Int(1), Int(2), Str("x"), Str("a string of some length")}
	var s Slab
	const runs = 100
	s.Reserve((runs+1)*len(src), (runs+1)*len("xa string of some length"))
	if n := testing.AllocsPerRun(runs, func() { s.Rehome(src) }); n != 0 {
		t.Errorf("reserved slab: %v allocs per re-homed tuple, want 0", n)
	}
	// AllocsPerRun rounds the average down: one allocation per chunk reads
	// 0, one per tuple would read 1.
	var chunked Slab
	if n := testing.AllocsPerRun(4*slabChunk, func() { chunked.Rehome(src) }); n != 0 {
		t.Errorf("chunked slab: %v allocs per tuple, want one per chunk", n)
	}
}

// TestSlabShallowAndDeep: Concat and Project share the source's
// strings; Str, StrBytes, RehomeValue and Rehome copy them into the arena.
// Either way the values are equal, the empty string stays a string, and a
// string longer than an arena chunk gets a chunk of its own.
func TestSlabShallowAndDeep(t *testing.T) {
	long := strings.Repeat("0123456789abcdef", arenaChunk/16+1)
	text := []byte("mutable")
	var s Slab
	src := Tuple{Int(7), Str("keep"), Str(""), Str(long), s.StrBytes(text)}
	text[0] = 'M' // the arena holds a copy
	if got := src[4].AsString(); got != "mutable" {
		t.Fatalf("StrBytes aliased its argument: %q", got)
	}
	same := func(a, b Value) bool {
		return len(a.AsString()) > 0 && a.p == b.p
	}
	shallow := []Tuple{s.Concat(src, nil), s.Concat(src[:2], src[2:]), s.Project(src, []int{0, 1, 2, 3, 4})}
	for _, c := range shallow {
		if !c.Equal(src) || !same(c[1], src[1]) || !same(c[3], src[3]) {
			t.Errorf("shallow copy %v does not share the strings of %v", c, src)
		}
	}
	deep := s.Rehome(src)
	if !deep.Equal(src) || same(deep[1], src[1]) || same(deep[3], src[3]) {
		t.Errorf("Rehome left strings where they were")
	}
	if deep[2].Kind() != TString || deep[2].AsString() != "" {
		t.Errorf("re-homed empty string is %v", deep[2])
	}
	if v := s.RehomeValue(Int(3)); v.Kind() != TInt || v.AsInt() != 3 {
		t.Errorf("RehomeValue(Int(3)) = %v", v)
	}
	// Strings written back to back do not run into each other.
	a, b := s.Str("left"), s.Str("right")
	if a.AsString() != "left" || b.AsString() != "right" {
		t.Errorf("adjacent arena strings: %q %q", a.AsString(), b.AsString())
	}
	if p := s.Project(src, []int{3, 0}); len(p) != 2 || cap(p) != 2 || p[0].AsString() != long || p[1].AsInt() != 7 {
		t.Errorf("Project = %d values", len(p))
	}
}

// TestSlabRehomeDropsSourceArena is the pin-by-one-survivor rule from the
// survivors' side: one tuple in ten of a string-heavy slab is re-homed, the
// source is dropped, and what stays live is about the survivors — not the
// source's chunks and arenas, which a shallow copy would have pinned whole.
func TestSlabRehomeDropsSourceArena(t *testing.T) {
	const n, keepEvery = 20_000, 10
	pad := strings.Repeat("p", 100)
	live := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	build := func(deep bool) (kept []Tuple, grew int64) {
		before := live()
		var src Slab
		all := make([]Tuple, n)
		for i := range all {
			tup := src.New(3)
			tup[0], tup[1], tup[2] = Int(int64(i)), src.Str(pad), src.Str(pad)
			all[i] = tup
		}
		var dst Slab
		dst.Reserve(n/keepEvery*3, n/keepEvery*2*len(pad))
		kept = make([]Tuple, 0, n/keepEvery)
		for i := 0; i < n; i += keepEvery {
			if deep {
				kept = append(kept, dst.Rehome(all[i]))
			} else {
				kept = append(kept, dst.Concat(all[i], nil))
			}
		}
		all = nil
		src = Slab{}
		return kept, live() - before
	}
	survivors := int64(n / keepEvery * (3*16 + 2*len(pad) + 24))
	kept, grew := build(true)
	if grew > survivors*5/4 {
		t.Errorf("%d tuples of %d re-homed: %d bytes live, the survivors weigh %d", len(kept), n, grew, survivors)
	}
	runtime.KeepAlive(kept)
	kept, pinned := build(false)
	if pinned < 5*survivors {
		t.Errorf("a shallow copy kept only %d bytes live: this test no longer shows what Rehome is for", pinned)
	}
	runtime.KeepAlive(kept)
	t.Logf("survivors %d B: re-homed %d B live, shallow-copied %d B live", survivors, grew, pinned)
}

// TestLoadersAllocatePerRelation: the generators and the CSV import cost a
// number of allocations that does not grow with the rows (the CSV reader
// itself allocates one string per record; nothing is added to that).
func TestLoadersAllocatePerRelation(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	for _, n := range []int{2_000, 20_000} {
		if got := testing.AllocsPerRun(3, func() { Wisconsin("w", n, 1) }); got > 12 {
			t.Errorf("Wisconsin(%d): %v allocations, want at most 12", n, got)
		}
		var dump strings.Builder
		if err := Wisconsin("w", n, 1).WriteCSV(&dump); err != nil {
			t.Fatal(err)
		}
		// Unknown cardinality: value chunks, arena chunks and the tuple
		// slice grow as the rows come, by doubling up to 64 KiB chunks.
		growth := float64(80 + n*WisconsinSchema.Len()/slabChunk + n*WisconsinRowStringBytes/arenaChunk)
		got := testing.AllocsPerRun(3, func() {
			if _, err := ReadCSV("w", strings.NewReader(dump.String())); err != nil {
				t.Fatal(err)
			}
		})
		if got > float64(n)+growth {
			t.Errorf("ReadCSV of %d rows: %v allocations, want at most one per record plus %v", n, got, growth)
		}
	}
}
