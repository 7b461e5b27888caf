package relation

import (
	"runtime"
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

// TestRegionTuples: what goes into a region comes back out of Tuples, value
// for value, as ordinary capped tuples; the empty string stays a string,
// Shared copies a constant in once, Alias shares the values of a tuple, and
// the region passes its own Check.
func TestRegionTuples(t *testing.T) {
	r := NewRegion(4, 9, len("keep")+len("other")+len("const"))
	if r.Tuples() != nil {
		t.Fatal("an empty region has tuples")
	}
	r.Begin(4)
	r.Int(7)
	r.Str("keep")
	r.Str("")
	r.Shared("const")
	r.Begin(0)
	r.Rehome(Tuple{Int(-1), Str("other"), Int(0)})
	r.Begin(2)
	r.Shared("const")
	r.Shared("")
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
		t.Error("Shared copied its constant in twice")
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
	r = NewRegion(2, 2, 1)
	r.Begin(2)
	r.Int(5)
	r.Str("s")
	r.Alias(r.Tuples()[0])
	both := r.Tuples()
	if len(both) != 2 || !both[1].Equal(both[0]) || &both[0][0] != &both[1][0] {
		t.Errorf("Alias: %v", both)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestRegionRefusesMisuse: a region is exactly sized and deep-only, and says
// so by panicking — overfilling it, leaving a tuple half filled, or aliasing
// a tuple that lives elsewhere is a loader bug.
func TestRegionRefusesMisuse(t *testing.T) {
	fresh := func() *Region {
		r := NewRegion(1, 3, 0)
		r.Begin(2)
		r.Int(1)
		return r
	}
	for name, misuse := range map[string]func(*Region){
		"tuple left half filled":   func(r *Region) { r.Tuples() },
		"next tuple begun early":   func(r *Region) { r.Begin(1) },
		"more tuples than sized":   func(r *Region) { r.Int(2); r.Begin(0) },
		"more values than sized":   func(r *Region) { r.Int(2); r.Int(3); r.Int(4) },
		"more values than begun":   func(r *Region) { r.Int(2); r.Int(3); r.Tuples() },
		"more string bytes":        func(r *Region) { r.Str(strings.Repeat("s", regionShared+8)) },
		"alias of a foreign tuple": func(r *Region) { r.Int(2); r.Alias(Tuple{Int(1)}) },
	} {
		r := fresh()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: accepted", name)
				}
			}()
			misuse(r)
		}()
	}
}

// TestRegionCheckCatchesForeignPointers: Check is what stands between a bug
// in this package and a dangling pointer, so it must see every way a pointer
// word can leave the region.
func TestRegionCheckCatchesForeignPointers(t *testing.T) {
	build := func() *Region {
		r := NewRegion(2, 4, 8)
		for i := 0; i < 2; i++ {
			r.Begin(2)
			r.Int(int64(i))
			r.Str("four")
		}
		return r
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
		src := NewRegion(n, 3*n, 2*n*len(pad))
		for i := 0; i < n; i++ {
			src.Begin(3)
			src.Int(int64(i))
			src.Str(pad)
			src.Str(pad)
		}
		all := src.Tuples()
		if deep {
			dst := NewRegion(n/keepEvery, n/keepEvery*3, n/keepEvery*2*len(pad))
			for i := 0; i < n; i += keepEvery {
				dst.Rehome(all[i])
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
