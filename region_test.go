package dbs3

import (
	"bytes"
	"reflect"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"

	"dbs3/internal/partition"
	"dbs3/internal/relation"
	"dbs3/internal/workload"
)

// scannableHeap is the part of the live heap the collector has to walk
// looking for pointers, as of a collection it forces: runtime/metrics'
// /gc/scan/heap:bytes. Unlike a timing it repeats.
func scannableHeap() int64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// TestLoadedRelationsAreNotScanned: base relations are born in regions,
// which hold no pointer the collector knows of, so loading one adds its bytes
// to the heap and next to nothing to what every later collection must scan —
// only the fragment table and the catalog entry. When the same tuples lived
// in []Tuple and []Value the two grew together.
func TestLoadedRelationsAreNotScanned(t *testing.T) {
	db := New()
	if err := db.CreateWisconsin("shard", 20_000, 16, "unique2", 7); err != nil {
		t.Fatal(err)
	}
	notes := notesCSV(20_000)
	var jdb *workload.JoinDB
	for _, l := range []struct {
		name string
		load func() error
		// loaded is what the load weighs where the heap's growth does not
		// say: the shard replaces a relation three times its size.
		loaded func() int64
	}{
		{name: "NewJoinDB(100000, 10240, 64, 1)", load: func() (err error) {
			jdb, err = workload.NewJoinDB(100_000, 10_240, 64, 1)
			return err
		}},
		{name: "CreateWisconsin(20000, 16)", load: func() error {
			if err := db.CreateWisconsin("wisc", 20_000, 16, "unique2", 42); err != nil {
				return err
			}
			db.settled()
			return nil
		}},
		{name: "LoadCSV(notesCSV(20000), 16)", load: func() error { return db.LoadCSV("notes", strings.NewReader(notes), "id", 16) }},
		{name: "ShardRelation 1 of 3", load: func() error { return db.ShardRelation("shard", "unique2", 1, 3) },
			loaded: func() int64 { return rehomedBytes(db.settled()["shard"]) }},
	} {
		heap, scan := liveHeap(), scannableHeap()
		if err := l.load(); err != nil {
			t.Fatal(err)
		}
		scan, heap = scannableHeap()-scan, liveHeap()-heap
		if l.loaded != nil {
			heap = l.loaded()
		}
		if heap < 1<<20 {
			t.Fatalf("%s: %d bytes loaded, which is no relation", l.name, heap)
		}
		if scan > heap/20 {
			t.Errorf("%s: %d bytes loaded, the scannable heap grew by %d (%.1f%%), want under 5%%", l.name, heap, scan, 100*float64(scan)/float64(heap))
		} else {
			t.Logf("%s: %d bytes loaded, the scannable heap grew by %d (%.2f%%)", l.name, heap, scan, 100*float64(scan)/float64(heap))
		}
	}
	runtime.KeepAlive(db)
	runtime.KeepAlive(jdb)
}

// rehomedBytes is what p weighs once re-homed into a region: per tuple a
// header and its values, and the bytes of each distinct string address its
// values hold, once however many values share them.
func rehomedBytes(p *partition.Partitioned) int64 {
	var n int64
	seen := make(map[uintptr]bool)
	for _, frag := range p.Fragments {
		for _, tup := range frag {
			n += int64(24 + 16*len(tup))
			for _, v := range tup {
				if v.Kind() == relation.TString && !seen[stringAddr(v)] {
					seen[stringAddr(v)] = true
					n += int64(len(v.AsString()))
				}
			}
		}
	}
	return n
}

// stringAddr is the address of a string value's first byte: two values
// share their bytes when it is the same.
func stringAddr(v relation.Value) uintptr { return reflect.ValueOf(v.AsString()).Pointer() }

// TestCreateWisconsinBytesPerRow: a generated Wisconsin row weighs its header,
// its sixteen values and one 52-byte text — 332 bytes — because stringu1 and
// stringu2 share the relation's text table. Two copies per row would be 384.
func TestCreateWisconsinBytesPerRow(t *testing.T) {
	const card = 20_000
	db := New()
	before := liveHeap()
	if err := db.CreateWisconsin("wisc", card, 16, "unique2", 42); err != nil {
		t.Fatal(err)
	}
	db.settled()
	perRow := float64(liveHeap()-before) / card
	if perRow > 340 {
		t.Errorf("CreateWisconsin(%d, 16): %.1f live bytes per row, want at most 340", card, perRow)
	} else {
		t.Logf("CreateWisconsin(%d, 16): %.1f live bytes per row", card, perRow)
	}
	runtime.KeepAlive(db)
}

// BenchmarkLoadCSV imports a 20 000-row Wisconsin dump through the facade and
// reports, next to allocs/op, the live and the scannable bytes per tuple of
// the last database built. The import streams into a slab and is then copied
// into a region, so what stays live is the region: exactly sized, and with
// nothing in it for a later collection to scan.
func BenchmarkLoadCSV(b *testing.B) {
	const card = 20_000
	var dump bytes.Buffer
	if err := relation.Wisconsin("w", card, 42).WriteCSV(&dump); err != nil {
		b.Fatal(err)
	}
	heap, scan := liveHeap(), scannableHeap()
	var db *Database
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db = New()
		if err := db.LoadCSV("w", bytes.NewReader(dump.Bytes()), "unique2", 16); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	heap, scan = liveHeap()-heap, scannableHeap()-scan
	b.ReportMetric(float64(heap)/card, "B/tuple")
	b.ReportMetric(float64(max(scan, 0))/card, "scan-B/tuple")
	runtime.KeepAlive(db)
}

// TestShardRelationRegionChecks: the region a shard is re-homed into holds
// no pointer out of itself — in particular none into the relation it came
// from — for generated, shared-value (Br) and imported relations alike.
func TestShardRelationRegionChecks(t *testing.T) {
	db := New()
	if err := db.CreateWisconsin("wisc", 3_000, 8, "unique2", 42); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateJoinPair("", 6_000, 640, 8, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadCSV("notes", strings.NewReader(notesCSV(2_000)), "id", 8); err != nil {
		t.Fatal(err)
	}
	for rel, col := range map[string]string{"wisc": "stringu1", "A": "k", "Br": "k", "notes": "id"} {
		whole := db.settled()[rel].Cardinality()
		if err := db.ShardRelation(rel, col, 1, 3); err != nil {
			t.Fatal(err)
		}
		region := db.settled()[rel].Region
		if err := region.Check(); err != nil {
			t.Errorf("%s: %v", rel, err)
		}
		kept := db.settled()[rel].Cardinality()
		if len(region.Tuples()) != kept || kept == 0 || kept >= whole {
			t.Errorf("%s: shard keeps %d of %d tuples, its region holds %d", rel, kept, whole, len(region.Tuples()))
		}
	}
}

var garbage []byte

// churn runs 64 MB of pointer-free garbage through three collections, so
// that whatever the collector freed before or meanwhile has been handed out
// again and overwritten.
func churn() {
	for round := 0; round < 3; round++ {
		for i := 0; i < 22; i++ {
			garbage = make([]byte, 1<<20)
			for j := range garbage {
				garbage[j] = 0xAA
			}
		}
		garbage = nil
		runtime.GC()
	}
}

// TestRegionPinnedByOneSurvivor: nothing the collector can see points into a
// loaded relation except what the program holds — so whatever the program
// holds must keep the whole region alive, and nothing else may. Of a
// Wisconsin relation and a join pair only one fragment, then one tuple, then
// one string value copied out the way operators copy (Slab.Concat) is kept;
// after the rest is dropped and the heap churned, everything reachable from
// the survivor still reads as a freshly generated row does, both regions are
// still live whole, and once the survivor is dropped too they are gone.
func TestRegionPinnedByOneSurvivor(t *testing.T) {
	const card, degree, seed = 20_000, 16, 42
	const aCard, bCard, theta = 20_000, 2_048, 0.5
	rows := relation.NewWisconsinRows(card, seed)
	fresh, err := workload.NewJoinDB(aCard, bCard, degree, theta)
	if err != nil {
		t.Fatal(err)
	}
	freshA := make(map[int64]relation.Tuple, aCard)
	for _, frag := range fresh.A.Fragments {
		for _, tup := range frag {
			freshA[tup[1].AsInt()] = tup
		}
	}
	checkWisc := func(tup relation.Tuple) {
		t.Helper()
		u2 := int(tup[1].AsInt())
		for c, v := range tup {
			if !v.Equal(rows.Value(c, u2)) {
				t.Fatalf("retained wisc row %d column %d reads %v, generated afresh %v", u2, c, v, rows.Value(c, u2))
			}
		}
	}
	checkA := func(tup relation.Tuple) {
		t.Helper()
		if !tup.Equal(freshA[tup[1].AsInt()]) {
			t.Fatalf("retained A tuple reads %v, generated afresh %v", tup, freshA[tup[1].AsInt()])
		}
	}
	load := func() (wisc, a *partition.Partitioned) {
		db := New()
		if err := db.CreateWisconsin("wisc", card, degree, "unique2", seed); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateJoinPair("", aCard, bCard, degree, theta); err != nil {
			t.Fatal(err)
		}
		return db.settled()["wisc"], db.settled()["A"]
	}
	regions := int64(card*(24+16*16+relation.WisconsinRowStringBytes) + aCard*(24+3*16))

	// Each survivor is a pair (one of wisc, one of A) behind an `any`, so
	// the same code holds, checks and drops all three kinds.
	type survivor struct {
		name  string
		take  func(wisc, a *partition.Partitioned) any
		check func(kept any)
	}
	type fragments struct{ wisc, a []relation.Tuple }
	type tuples struct{ wisc, a relation.Tuple }
	for _, s := range []survivor{
		{"one fragment",
			func(wisc, a *partition.Partitioned) any { return &fragments{wisc.Fragments[3], a.Fragments[5]} },
			func(kept any) {
				k := kept.(*fragments)
				for _, tup := range k.wisc {
					checkWisc(tup)
				}
				for _, tup := range k.a {
					checkA(tup)
				}
			}},
		{"one tuple",
			func(wisc, a *partition.Partitioned) any { return &tuples{wisc.Fragments[7][11], a.Fragments[0][2]} },
			func(kept any) {
				k := kept.(*tuples)
				checkWisc(k.wisc)
				checkA(k.a)
			}},
		{"one string value copied out by Slab.Concat",
			func(wisc, a *partition.Partitioned) any {
				var slab relation.Slab
				w, at := wisc.Fragments[15][0], a.Fragments[9][1]
				// unique2 and id ride along so the check knows which rows
				// it has.
				return &tuples{slab.Concat(w[1:2], w[13:14]), slab.Concat(at[1:2], at[2:3])}
			},
			func(kept any) {
				k := kept.(*tuples)
				u2 := int(k.wisc[0].AsInt())
				if !k.wisc[1].Equal(rows.Value(13, u2)) {
					t.Fatalf("retained stringu1 of row %d reads %q, generated afresh %q", u2, k.wisc[1], rows.Value(13, u2))
				}
				if want := freshA[k.a[0].AsInt()][2]; !k.a[1].Equal(want) {
					t.Fatalf("retained pad reads %q, generated afresh %q", k.a[1], want)
				}
			}},
	} {
		before := liveHeap()
		kept := s.take(load())
		churn()
		s.check(kept)
		if pinned := liveHeap() - before; pinned < regions {
			t.Errorf("%s: %d bytes live, less than the two regions it points into (%d)", s.name, pinned, regions)
		}
		s.check(kept)
		kept = nil
		if left := liveHeap() - before; left > regions/20 {
			t.Errorf("%s dropped: %d bytes still live", s.name, left)
		}
	}
}
