package relation

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// liveBytes is the heap still reachable after two collections.
func liveBytes() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// regionOf builds a region of the given tuples the way tests build any: a
// compaction out of src (nil: none) under a schema of strings only, so an
// integer is copied as it is and a string keeps the sharing it had in src or,
// from anywhere else, is copied in per value.
func regionOf(src *Region, tuples ...Tuple) *Region {
	width, values := 1, 0
	for _, t := range tuples {
		width, values = max(width, len(t)), values+len(t)
	}
	cols := make([]Column, width)
	for i := range cols {
		cols[i] = Column{fmt.Sprintf("c%d", i), TString}
	}
	c := NewCompaction(src, MustSchema(cols...))
	for _, t := range tuples {
		c.Keep(t)
	}
	r := c.Region(len(tuples), values)
	for _, t := range tuples {
		c.Rehome(t)
	}
	return r
}

// TestRegionTuples: what goes into a region comes back out of Tuples, value
// for value, as ordinary capped tuples; the empty string stays a string, a
// constant two values share is copied in once, Alias shares the values of a
// tuple, and the region passes its own Check.
func TestRegionTuples(t *testing.T) {
	if NewRegion(0, 0, 0).Tuples() != nil {
		t.Fatal("an empty region has tuples")
	}
	constant := regionOf(nil, Tuple{Str("const")})
	c := constant.Tuples()[0][0]
	r := regionOf(constant, Tuple{Int(7), Str("keep"), Str(""), c}, Tuple{}, Tuple{Int(-1), Str("other"), Int(0)}, Tuple{c, Str("")})
	first := r.Tuples()
	want := []Tuple{{Int(7), Str("keep"), Str(""), Str("const")}, {}, {Int(-1), Str("other"), Int(0)}, {Str("const"), Str("")}}
	if len(first) != len(want) || cap(first) != len(want) {
		t.Fatalf("Tuples: len %d cap %d, want %d/%d", len(first), cap(first), len(want), len(want))
	}
	for i, tup := range first {
		if !tup.Equal(want[i]) || cap(tup) != len(tup) {
			t.Errorf("tuple %d = %v (cap %d), want %v", i, tup, cap(tup), want[i])
		}
	}
	if first[0][3].p != first[3][0].p {
		t.Error("the shared constant was copied in twice")
	}
	if r.ns != len("keep")+len("other")+len("const") {
		t.Errorf("%d string bytes used", r.ns)
	}
	grown := append(first[0], Int(99))
	if !first[1].Equal(Tuple{}) || !first[2].Equal(want[2]) || !grown[:4].Equal(want[0]) {
		t.Error("append on a region tuple overwrote its neighbour")
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}

	// Alias: a second header over the same values, in a region with room
	// for it.
	r = NewRegion(2, 3, 1)
	filled := JoinRows{Sizes: []int{1}, Cycle: 1, Stride: 1, Pad: "s"}.Fill(r)
	r.Alias(filled[0])
	both := r.Tuples()
	if len(both) != 2 || !both[0].Equal(Tuple{Int(0), Int(0), Str("s")}) || !both[1].Equal(both[0]) || &both[0][0] != &both[1][0] {
		t.Errorf("Alias: %v", both)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestJoinRowsPieces: a join fill cut into any number of pieces writes the
// words the one loop writes, wherever the cuts fall — after an empty
// fragment, inside a fragment shorter than its cycle, mid-cycle, on a
// fragment boundary, past the last row when there are more pieces than rows —
// and the region passes its own Check.
func TestJoinRowsPieces(t *testing.T) {
	cases := []JoinRows{
		{Sizes: []int{0, 7, 0, 9, 0}, Cycle: 3, Stride: 5, Pad: "p"},
		{Sizes: []int{2, 11, 1, 6}, Cycle: 4, Stride: 4, Pad: "pad"},
		{Sizes: []int{8, 8, 8, 8}, Cycle: 8, Stride: 4, Pad: ""},
		{Sizes: []int{0, 0}, Cycle: 1, Stride: 2, Pad: "x"},
	}
	// words returns the words a region's tuples were given, every address
	// made an offset into the block.
	words := func(r *Region) []uint64 {
		w := append(slices.Clone(r.hdr[:3*r.nt]), r.val[:r.nv]...)
		for i := 0; i < 3*r.nt; i += 3 {
			w[i] -= uint64(r.base)
		}
		for i := 3 * r.nt; i < len(w); i += 2 {
			if w[i] != 0 {
				w[i] -= uint64(r.base)
			}
		}
		return w
	}
	var onBoundary, midCycle bool
	for i, j := range cases {
		rows := j.rows()
		// fill fills j in pieces after one row already in the region, so
		// the rows' values do not start at the block's first value.
		fill := func(pieces int) *Region {
			r := NewRegion(1+rows, 3*(1+rows), 1+len(j.Pad))
			JoinRows{Sizes: []int{1}, Cycle: 1, Stride: 1, Pad: "r"}.fill(r, 1)
			j.fill(r, pieces)
			if err := r.Check(); err != nil {
				t.Errorf("case %d in %d pieces: %v", i, pieces, err)
			}
			return r
		}
		want := fill(1)
		id := 0
		for f, n := range j.Sizes {
			for at := range n {
				row := Tuple{Int(int64(f + at%j.Cycle*j.Stride)), Int(int64(id)), Str(j.Pad)}
				if got := want.Tuples()[1+id]; !got.Equal(row) {
					t.Errorf("case %d: fragment %d row %d = %v, want %v", i, f, at, got, row)
				}
				id++
			}
		}
		for pieces := 2; pieces <= 8; pieces++ {
			if got := fill(pieces); !slices.Equal(words(got), words(want)) {
				t.Errorf("case %d in %d pieces: the words differ from the one loop's", i, pieces)
			}
			for p := 1; p < pieces; p++ {
				f, at := 0, p*rows/pieces // the cut is before row at of fragment f
				for f < len(j.Sizes)-1 && at >= j.Sizes[f] {
					at, f = at-j.Sizes[f], f+1
				}
				onBoundary = onBoundary || at == 0 && p*rows/pieces < rows
				midCycle = midCycle || at%j.Cycle != 0
			}
		}
	}
	if !onBoundary || !midCycle {
		t.Errorf("cuts fell on a fragment boundary: %v, mid-cycle: %v; want both", onBoundary, midCycle)
	}
}

// TestJoinRowsShard: a shard of a join relation holds exactly the rows of
// its Fill whose key or id has its bit set, or every row for a nil bitmap,
// in Fill's fragments and order or,
// by id, in fragment id modulo the degree and id order within each — every
// kept row in one exactly sized region that passes its Check, holding the
// pad once if it holds a row at all.
func TestJoinRowsShard(t *testing.T) {
	cases := []JoinRows{
		{Sizes: []int{0, 7, 0, 9, 0}, Cycle: 3, Stride: 5, Pad: "p"},
		{Sizes: []int{2, 11, 1, 6}, Cycle: 4, Stride: 4, Pad: "pad"},
		{Sizes: []int{8, 8, 8, 8}, Cycle: 8, Stride: 4, Pad: ""},
		{Sizes: []int{70, 3, 66}, Cycle: 50, Stride: 3, Pad: "x"},
		{Sizes: []int{0, 0}, Cycle: 1, Stride: 2, Pad: "x"},
	}
	for i, j := range cases {
		rows := j.rows()
		whole := NewRegion(rows, 3*rows, len(j.Pad))
		all := j.Fill(whole)
		for on := 0; on <= 1; on++ {
			for _, byID := range []bool{false, true} {
				for pattern := range 5 { // none, all, every third value, every value but the third ones, and nil
					name := fmt.Sprintf("case %d on column %d, by id %v, pattern %d", i, on, byID, pattern)
					keep := make([]uint64, 8)
					for v := range 64 * len(keep) {
						if pattern == 1 || pattern == 2 && v%3 == 0 || pattern == 3 && v%3 != 0 || pattern == 4 {
							keep[v>>6] |= 1 << (v & 63)
						}
					}
					want := make([][]Tuple, len(j.Sizes))
					for f, n := range j.Sizes {
						lo := 0
						for _, m := range j.Sizes[:f] {
							lo += m
						}
						for _, row := range all[lo : lo+n] {
							if v := row[on].AsInt(); keep[v>>6]>>(v&63)&1 == 1 {
								place := f
								if byID {
									place = int(row[1].AsInt()) % len(j.Sizes)
								}
								want[place] = append(want[place], row)
							}
						}
					}
					if byID {
						for _, frag := range want {
							slices.SortFunc(frag, func(a, b Tuple) int { return int(a[1].AsInt() - b[1].AsInt()) })
						}
					}
					if pattern == 4 {
						keep = nil
					}
					r, sizes := j.Shard(on, keep, byID)
					if err := r.Check(); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					got := r.Tuples()
					kept := 0
					for f, frag := range want {
						if sizes[f] != len(frag) {
							t.Fatalf("%s: fragment %d holds %d rows, want %d", name, f, sizes[f], len(frag))
						}
						for _, row := range frag {
							if !got[kept].Equal(row) {
								t.Fatalf("%s: fragment %d row %d = %v, want %v", name, f, kept, got[kept], row)
							}
							kept++
						}
					}
					if len(got) != kept {
						t.Fatalf("%s: %d rows, want %d", name, len(got), kept)
					}
					if pad := min(kept, 1) * len(j.Pad); r.StringBytes() != pad {
						t.Errorf("%s: %d string bytes, want %d", name, r.StringBytes(), pad)
					}
				}
			}
		}
	}
}

// TestRegionRefusesMisuse: a region is exactly sized and deep-only, and says
// so by panicking — overfilling it with tuples, values or string bytes,
// viewing it before it is filled, compacting a tuple its schema does not
// describe, or aliasing a tuple that lives elsewhere is a loader bug.
func TestRegionRefusesMisuse(t *testing.T) {
	rows := func(n int, pad string) JoinRows { return JoinRows{Sizes: []int{n}, Cycle: 1, Stride: 1, Pad: pad} }
	compaction := func(keep ...Tuple) *Compaction {
		c := NewCompaction(nil, MustSchema(Column{"i", TInt}, Column{"s", TString}))
		for _, tup := range keep {
			c.Keep(tup)
		}
		c.Region(len(keep), 2*len(keep))
		return &c
	}
	tup, long := Tuple{Int(1), Str("s")}, strings.Repeat("s", regionShared+1)
	for name, misuse := range map[string]func(){
		"more rows than tuples":         func() { rows(2, "").Fill(NewRegion(1, 6, 0)) },
		"more rows than values":         func() { rows(2, "").Fill(NewRegion(2, 5, 0)) },
		"a pad past the string bytes":   func() { rows(1, long).Fill(NewRegion(1, 3, 0)) },
		"more tuples than compacted":    func() { c := compaction(tup); c.Rehome(tup); c.Rehome(tup) },
		"a string Keep did not count":   func() { compaction(Tuple{Int(1), Str("")}).Rehome(Tuple{Int(1), Str(long)}) },
		"a tuple wider than its schema": func() { compaction(tup).Rehome(Tuple{Int(1), Str("s"), Int(2)}) },
		"a string in an integer column": func() { compaction(tup).Rehome(Tuple{Str("s"), Str("s")}) },
		"Tuples of a short fill":        func() { r := NewRegion(2, 6, 0); rows(1, "").Fill(r); r.Tuples() },
		"Tuples of a short compaction":  func() { c := compaction(tup, tup); c.Rehome(tup); c.dst.Tuples() },
		"alias of a foreign tuple":      func() { r := NewRegion(2, 3, 0); rows(1, "").Fill(r); r.Alias(Tuple{Int(1)}) },
		"alias past the tuples":         func() { r := NewRegion(1, 3, 0); r.Alias(rows(1, "").Fill(r)[0]) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: accepted", name)
				}
			}()
			misuse()
		}()
	}
}

// TestRegionCheckCatchesForeignPointers: Check is what stands between a bug
// in this package and a dangling pointer, so it must see every way a pointer
// word can leave the region.
func TestRegionCheckCatchesForeignPointers(t *testing.T) {
	build := func() *Region {
		return regionOf(nil, Tuple{Int(0), Str("four")}, Tuple{Int(1), Str("four")})
	}
	if err := build().Check(); err != nil {
		t.Fatal(err)
	}
	outside := uint64(build().base) // a live block, but another one
	for name, corrupt := range map[string]func(*Region){
		"header into another block":    func(r *Region) { r.hdr[3] = outside },
		"header into the strings":      func(r *Region) { r.hdr[3] = uint64(r.strAddr) },
		"header past the values":       func(r *Region) { r.hdr[4], r.hdr[5] = 3, 3 },
		"header length without values": func(r *Region) { r.hdr[0] = 0 },
		"header capacity past length":  func(r *Region) { r.hdr[2] = 3 },
		"string into another block":    func(r *Region) { r.val[2] = outside },
		"string into the values":       func(r *Region) { r.val[2] = uint64(r.valAddr) },
		"string past the bytes":        func(r *Region) { r.val[7] = 5 },
		"integer with a pointer word":  func(r *Region) { r.val[0] = 1 },
	} {
		r := build()
		corrupt(r)
		if r.Check() == nil {
			t.Errorf("%s: Check passed", name)
		}
	}
}

// TestWisconsinTextsStoredOnce: the generator's region holds each of the n
// texts once and string4's constants once — stringu1 of row u2 is the very
// bytes of stringu2 of row unique1 — and nothing but pointers into itself.
// The cardinalities straddle the 26-letter alphabet of the rendering.
func TestWisconsinTextsStoredOnce(t *testing.T) {
	const seed = 3
	for _, n := range []int{1, 25, 26, 27, 2000} {
		r := wisconsinRegion(n, seed)
		if err := r.Check(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if want := n*wisconsinStringLen + min(n, len(string4Cycle))*len(string4Cycle[0]); r.ns != want {
			t.Errorf("n=%d: %d string bytes, want %d: each text and each string4 constant once", n, r.ns, want)
		}
		rows := NewWisconsinRows(n, seed)
		all := r.Tuples()
		for u2, tup := range all {
			for _, c := range []int{13, 14} {
				if !tup[c].Equal(rows.Value(c, u2)) {
					t.Fatalf("n=%d: row %d column %d = %q, want %q", n, u2, c, tup[c], rows.Value(c, u2))
				}
			}
			if u1 := tup[0].AsInt(); tup[13].p != all[u1][14].p {
				t.Fatalf("n=%d: stringu1 of row %d is a second copy of stringu2 of row %d", n, u2, u1)
			}
		}
	}
}

// TestSlabRehomeDropsSourceArena is the pin-by-one-survivor rule at both of
// its granularities. One tuple in ten of a string-heavy region is kept and
// the rest dropped. Re-homed into a region of their own, the survivors are
// all that stays live. Copied out shallowly by a slab — the way operators
// build results — their strings still point into the source region, which
// stays live whole: values, headers and all.
func TestSlabRehomeDropsSourceArena(t *testing.T) {
	const n, keepEvery = 20_000, 10
	pad := strings.Repeat("p", 100)
	build := func(deep bool) (kept []Tuple, grew int64) {
		before := liveBytes()
		src := func() *Region {
			rows := make([]Tuple, n)
			for i := range rows {
				rows[i] = Tuple{Int(int64(i)), Str(pad), Str(pad)}
			}
			return regionOf(nil, rows...)
		}()
		all := src.Tuples()
		if deep {
			c := NewCompaction(src, MustSchema(Column{"i", TInt}, Column{"a", TString}, Column{"b", TString}))
			for i := 0; i < n; i += keepEvery {
				c.Keep(all[i])
			}
			dst := c.Region(n/keepEvery, n/keepEvery*3)
			for i := 0; i < n; i += keepEvery {
				c.Rehome(all[i])
			}
			kept = dst.Tuples()
		} else {
			var dst Slab
			for i := 0; i < n; i += keepEvery {
				kept = append(kept, dst.Concat(all[i], nil))
			}
		}
		all, src = nil, nil
		grew = liveBytes() - before
		for i, tup := range kept {
			if want := (Tuple{Int(int64(i * keepEvery)), Str(pad), Str(pad)}); !tup.Equal(want) {
				t.Fatalf("deep=%v: kept tuple %d = %v", deep, i, tup)
			}
		}
		return kept, grew
	}
	survivors := int64(n / keepEvery * (3*16 + 2*len(pad) + 24))
	kept, grew := build(true)
	if grew > survivors*5/4 {
		t.Errorf("%d tuples of %d re-homed: %d bytes live, the survivors weigh %d", len(kept), n, grew, survivors)
	}
	runtime.KeepAlive(kept)
	kept, pinned := build(false)
	if pinned < int64(n)*int64(3*16+2*len(pad)+24) {
		t.Errorf("a shallow copy kept only %d bytes live: it should have pinned the source region whole", pinned)
	}
	runtime.KeepAlive(kept)
	t.Logf("survivors %d B: re-homed %d B live, shallow-copied %d B live", survivors, grew, pinned)
}

// TestCompactionKeepsSharing: a compaction out of a Wisconsin region copies
// each text a kept row refers to once, whether as its stringu1 or another
// kept row's stringu2, and each string4 constant once, so two kept values
// that shared bytes in the source share one address in the destination.
// Strings from outside the source and the empty string are copied per value,
// and a compaction with no source copies every string per value.
func TestCompactionKeepsSharing(t *testing.T) {
	const n, seed = 2_000, 5
	src := wisconsinRegion(n, seed)
	all := src.Tuples()
	keep := func(u2 int) bool { return u2%3 == 1 || u2%7 == 0 }
	foreign := append(Tuple(nil), all[0]...)
	foreign[13], foreign[14], foreign[15] = Str("foreign"), Str("foreign"), Str("")

	c := NewCompaction(src, WisconsinSchema)
	kept, texts, string4 := 0, map[int64]bool{}, map[string]bool{}
	for u2, tup := range all {
		if keep(u2) {
			c.Keep(tup)
			kept++
			texts[tup[0].AsInt()], texts[tup[1].AsInt()] = true, true
			string4[tup[15].AsString()] = true
		}
	}
	c.Keep(foreign)
	r := c.Region(kept+1, (kept+1)*WisconsinSchema.Len())
	for u2, tup := range all {
		if keep(u2) {
			c.Rehome(tup)
		}
	}
	c.Rehome(foreign)
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	want := len(texts)*wisconsinStringLen + len(string4)*len(string4Cycle[0]) + 2*len("foreign")
	if r.ns != want {
		t.Errorf("%d string bytes, want %d: %d texts and %d string4 constants once, the foreign string twice", r.ns, want, len(texts), len(string4))
	}

	got := r.Tuples()
	at := make(map[string]Value) // text -> the value that first held it in r
	i := 0
	for u2, tup := range all {
		if !keep(u2) {
			continue
		}
		if !got[i].Equal(tup) {
			t.Fatalf("kept row %d = %v, source %v", u2, got[i], tup)
		}
		for _, c := range []int{13, 14, 15} {
			v := got[i][c]
			if first, ok := at[v.AsString()]; ok && first.p != v.p {
				t.Fatalf("row %d column %d: %q is a second copy of a text the source held once", u2, c, v)
			}
			at[v.AsString()] = v
		}
		i++
	}
	last := got[len(got)-1]
	if !last.Equal(foreign) || last[13].p == last[14].p || uintptr(last[15].p) != r.base {
		t.Errorf("foreign tuple re-homed as %v: want its strings copied per value and its empty string at the block", last)
	}

	// Without a source every string is foreign.
	c = NewCompaction(nil, WisconsinSchema)
	c.Keep(all[0])
	r = c.Region(1, WisconsinSchema.Len())
	c.Rehome(all[0])
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	if want := 2*wisconsinStringLen + len(string4Cycle[0]); r.ns != want || !r.Tuples()[0].Equal(all[0]) {
		t.Errorf("compaction without a source: %d string bytes, want %d", r.ns, want)
	}

	// A source string in a column the schema calls an integer was never
	// marked: Rehome refuses it instead of storing a wrong address.
	stray := append(Tuple(nil), all[0]...)
	stray[0] = all[1][13]
	c = NewCompaction(src, WisconsinSchema)
	c.Keep(stray)
	c.Region(1, WisconsinSchema.Len())
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Rehome accepted a source string Keep did not count")
			}
		}()
		c.Rehome(stray)
	}()
}

// TestNextBit: the run scanner finds set and clear bits across word
// boundaries and stops at the end of the map.
func TestNextBit(t *testing.T) {
	m := []uint64{1 << 63, ^uint64(0), 0b101}
	for _, c := range []struct{ from, set, clear int }{
		{0, 63, 0}, {63, 63, 129}, {64, 64, 129}, {129, 130, 129}, {131, 192, 131}, {191, 192, 191},
	} {
		if got := nextBit(m, c.from, 0); got != c.set {
			t.Errorf("next set bit from %d = %d, want %d", c.from, got, c.set)
		}
		if got := nextBit(m, c.from, ^uint64(0)); got != c.clear {
			t.Errorf("next clear bit from %d = %d, want %d", c.from, got, c.clear)
		}
	}
}
