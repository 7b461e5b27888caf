package dbs3

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"dbs3/internal/core"
	"dbs3/internal/race"
	"dbs3/internal/relation"
)

// shardedCopies builds shards identical databases (same creation seeds) and
// restricts each to its own hash shard of wisc — exactly how cluster worker
// nodes are provisioned.
func shardedCopies(t *testing.T, card, shards int) []*Database {
	t.Helper()
	dbs := make([]*Database, shards)
	for i := range dbs {
		db := New()
		if err := db.CreateWisconsin("wisc", card, 4, "unique2", 42); err != nil {
			t.Fatal(err)
		}
		if err := db.ShardRelation("wisc", "unique2", i, shards); err != nil {
			t.Fatal(err)
		}
		dbs[i] = db
	}
	return dbs
}

// TestShardRelationUnionIsWholeRelation: the shards partition the relation —
// their cardinalities sum to the original, no tuple appears on two nodes,
// and the union of the shards' tuples is exactly the unsharded relation.
func TestShardRelationUnionIsWholeRelation(t *testing.T) {
	const card, shards = 900, 3
	dbs := shardedCopies(t, card, shards)

	var total int
	seen := make(map[string]int)
	for i, db := range dbs {
		n := db.settled()["wisc"].Cardinality()
		if n == 0 || n == card {
			t.Errorf("shard %d holds %d of %d tuples; hash split degenerate", i, n, card)
		}
		total += n
		rows, err := db.QueryAllContext(context.Background(), "SELECT unique1, unique2 FROM wisc", nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows.Data {
			seen[fmt.Sprint(r)]++
		}
	}
	if total != card {
		t.Errorf("shard cardinalities sum to %d, want %d", total, card)
	}

	full := New()
	if err := full.CreateWisconsin("wisc", card, 4, "unique2", 42); err != nil {
		t.Fatal(err)
	}
	rows, err := full.QueryAllContext(context.Background(), "SELECT unique1, unique2 FROM wisc", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != len(seen) {
		t.Fatalf("union has %d distinct tuples, full relation %d", len(seen), len(rows.Data))
	}
	for _, r := range rows.Data {
		if seen[fmt.Sprint(r)] != 1 {
			t.Fatalf("tuple %v appears on %d shards, want exactly 1", r, seen[fmt.Sprint(r)])
		}
	}
}

// TestShardRelationWisconsinMatchesUnsharded: a shard of a generated
// Wisconsin relation, whose stringu1 and stringu2 share one text table,
// holds exactly the unsharded rows whose key hashes into it — in fragment
// order, value for value and string for string — in a region of its own.
func TestShardRelationWisconsinMatchesUnsharded(t *testing.T) {
	const card, degree, shard, shards = 3_000, 8, 1, 3
	full, db := New(), New()
	for _, d := range []*Database{full, db} {
		if err := d.CreateWisconsin("wisc", card, degree, "unique2", 42); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.ShardRelation("wisc", "unique2", shard, shards); err != nil {
		t.Fatal(err)
	}
	kept := db.settled()["wisc"]
	if err := kept.Region.Check(); err != nil {
		t.Fatal(err)
	}
	whole := full.settled()["wisc"]
	cols := []int{whole.Schema.MustIndex("unique2")}
	for f, frag := range whole.Fragments {
		var want []relation.Tuple
		for _, tup := range frag {
			if shardOf(tup, cols, shards) == shard {
				want = append(want, tup)
			}
		}
		got := kept.Fragments[f]
		if len(got) != len(want) {
			t.Fatalf("fragment %d: shard holds %d rows, %d of the unsharded fragment hash into it", f, len(got), len(want))
		}
		for i, tup := range got {
			for c, v := range tup {
				if !v.Equal(want[i][c]) {
					t.Fatalf("fragment %d row %d column %s = %q, unsharded %q", f, i, whole.Schema.Column(c).Name, v, want[i][c])
				}
			}
		}
	}
}

// TestShardRelationFillsEveryFragment: a tuple's shard comes from the high
// word of its key's hash and its fragment from the hash modulo the degree, so
// whatever factors the shard count and the degree share, every node keeps a
// share of every fragment — and the shards still union to the relation, each
// row on exactly one.
func TestShardRelationFillsEveryFragment(t *testing.T) {
	const card = 20_000
	for _, degree := range []int{8, 16} {
		for _, shards := range []int{2, 3, 4} {
			on := make([]int, card) // shards holding row unique2
			for shard := 0; shard < shards; shard++ {
				db := New()
				if err := db.CreateWisconsin("wisc", card, degree, "unique2", 1); err != nil {
					t.Fatal(err)
				}
				if err := db.ShardRelation("wisc", "unique2", shard, shards); err != nil {
					t.Fatal(err)
				}
				for f, frag := range db.settled()["wisc"].Fragments {
					if len(frag) == 0 {
						t.Errorf("degree %d, shard %d of %d: fragment %d is empty (sizes %v)", degree, shard, shards, f, db.settled()["wisc"].FragmentSizes())
					}
					for _, tup := range frag {
						on[tup[1].AsInt()]++
					}
				}
			}
			for u2, n := range on {
				if n != 1 {
					t.Fatalf("degree %d, %d shards: row %d is on %d shards, want exactly 1", degree, shards, u2, n)
				}
			}
		}
	}
}

// TestShardRelationStoresSharedTextsOnce: a shard keeps the sharing its
// relation's region had. Each 1-of-3 shard of Wisconsin(20 000, seed 1) holds
// each text its rows refer to once, whether as one row's stringu1 or another
// row's stringu2, plus string4's constants once; a row's stringu1 is the very
// bytes of the stringu2 of the row its unique1 names, whenever the shard keeps
// both. Each join-pair shard holds its pad once.
func TestShardRelationStoresSharedTextsOnce(t *testing.T) {
	const card, degree, shards = 20_000, 8, 3
	for shard := 0; shard < shards; shard++ {
		db := New()
		if err := db.CreateWisconsin("wisc", card, degree, "unique2", 1); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateJoinPair("", 5_000, 5_000, degree, 0.5); err != nil {
			t.Fatal(err)
		}
		for rel, col := range map[string]string{"wisc": "unique2", "A": "k", "B": "k", "Br": "k"} {
			if err := db.ShardRelation(rel, col, shard, shards); err != nil {
				t.Fatal(err)
			}
			if err := db.settled()[rel].Region.Check(); err != nil {
				t.Fatalf("shard %d of %s: %v", shard, rel, err)
			}
		}

		wisc := db.settled()["wisc"]
		texts, string4 := make(map[int64]bool), make(map[string]bool)
		byU2 := make(map[int64]relation.Tuple, wisc.Cardinality())
		for _, frag := range wisc.Fragments {
			for _, tup := range frag {
				texts[tup[0].AsInt()], texts[tup[1].AsInt()] = true, true
				string4[tup[15].AsString()] = true
				byU2[tup[1].AsInt()] = tup
			}
		}
		textLen := len(wisc.Fragments[0][0][13].AsString())
		want := len(texts) * textLen
		for s := range string4 {
			want += len(s)
		}
		if got := wisc.Region.StringBytes(); got != want {
			t.Errorf("shard %d of wisc: %d string bytes, want %d: %d distinct texts and %d string4 constants once each", shard, got, want, len(texts), len(string4))
		}
		shared := 0
		for _, tup := range byU2 {
			if named, ok := byU2[tup[0].AsInt()]; ok {
				if stringAddr(tup[13]) != stringAddr(named[14]) {
					t.Fatalf("shard %d: stringu1 of row %d is a second copy of stringu2 of row %d", shard, tup[1].AsInt(), tup[0].AsInt())
				}
				shared++
			}
		}
		if shared == 0 {
			t.Fatalf("shard %d: no row's stringu1 names a kept row; nothing was shared", shard)
		}

		for _, rel := range []string{"A", "B", "Br"} {
			p := db.settled()[rel]
			pads := make(map[uintptr]bool)
			for _, frag := range p.Fragments {
				for _, tup := range frag {
					pads[stringAddr(tup[2])] = true
				}
			}
			if pad := p.Fragments[0][0][2].AsString(); len(pads) != 1 || p.Region.StringBytes() != len(pad) {
				t.Errorf("shard %d of %s: pad %q at %d addresses in %d string bytes, want once", shard, rel, pad, len(pads), p.Region.StringBytes())
			}
		}
	}
}

// TestShardRelationKeepsFragmentStructure: sharding thins fragments but
// never changes the degree of partitioning — the local parallel plan shape
// survives.
func TestShardRelationKeepsFragmentStructure(t *testing.T) {
	db := New()
	if err := db.CreateWisconsin("wisc", 600, 4, "unique2", 42); err != nil {
		t.Fatal(err)
	}
	before := db.settled()["wisc"].Degree()
	if err := db.ShardRelation("wisc", "unique2", 1, 3); err != nil {
		t.Fatal(err)
	}
	after := db.settled()["wisc"].Degree()
	if after != before {
		t.Errorf("degree changed %d -> %d across sharding", before, after)
	}
	sizes, err := db.FragmentSizes("wisc")
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != before {
		t.Errorf("fragment count %d, want %d", len(sizes), before)
	}
	var sum int
	for _, s := range sizes {
		sum += s
	}
	card := db.settled()["wisc"].Cardinality()
	if sum != card {
		t.Errorf("fragment sizes sum to %d, cardinality says %d", sum, card)
	}
}

// TestShardRelationQueriesSeeOnlyTheShard: a query after sharding runs over
// the shard alone, and a grouped aggregate's per-shard partials sum to the
// global counts — the property the coordinator's merge step builds on.
func TestShardRelationQueriesSeeOnlyTheShard(t *testing.T) {
	const card, shards = 900, 3
	dbs := shardedCopies(t, card, shards)

	merged := make(map[int64]int64)
	for _, db := range dbs {
		rows, err := db.QueryAllContext(context.Background(), "SELECT ten, COUNT(*) FROM wisc GROUP BY ten", nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows.Data {
			merged[r[0].(int64)] += r[1].(int64)
		}
	}
	keys := make([]int64, 0, len(merged))
	var sum int64
	for k, v := range merged {
		keys = append(keys, k)
		sum += v
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if len(keys) != 10 || sum != card {
		t.Errorf("merged partial COUNTs: %d groups summing to %d, want 10 and %d", len(keys), sum, card)
	}
}

// TestShardRelationBounds: nonsense shard coordinates, unknown relations and
// unknown distribution columns are rejected.
func TestShardRelationBounds(t *testing.T) {
	db := New()
	if err := db.CreateWisconsin("wisc", 100, 4, "unique2", 42); err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]func() error{
		"zero shards":      func() error { return db.ShardRelation("wisc", "unique2", 0, 0) },
		"negative shards":  func() error { return db.ShardRelation("wisc", "unique2", 0, -1) },
		"negative shard":   func() error { return db.ShardRelation("wisc", "unique2", -1, 3) },
		"shard past count": func() error { return db.ShardRelation("wisc", "unique2", 3, 3) },
		"unknown relation": func() error { return db.ShardRelation("nope", "unique2", 0, 3) },
		"unknown column":   func() error { return db.ShardRelation("wisc", "nope", 0, 3) },
	} {
		if call() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// settled is the catalog with every pending relation generated, each named
// to FragmentSizes: the one way tests read a relation's fragments and region.
func (db *Database) settled() core.DB {
	for _, name := range db.Relations() {
		if _, err := db.FragmentSizes(name); err != nil {
			panic(err)
		}
	}
	rels, _ := db.snapshotRels()
	return rels
}

// liveHeap is the heap still reachable after two collections (the second
// frees what the first one's finalizers released).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// notesCSV is a string-heavy relation: n rows of an integer key and two
// strings of 40 to 160 bytes.
func notesCSV(n int) string {
	var b strings.Builder
	b.WriteString("id:INT,title:STRING,body:STRING\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d,%s,%s\n", i, strings.Repeat("t", 40+i%17), strings.Repeat("b", 90+i%71))
	}
	return b.String()
}

// TestShardRelationReleasesDroppedTuples: base relations live in regions, and
// one surviving tuple or string pins its whole region, so a shard that merely
// kept its third of the tuples — or re-homed their values and left the
// strings where they were — would keep most of the memory. A database sharded
// 1-of-3 must weigh what a database built from just that third weighs.
func TestShardRelationReleasesDroppedTuples(t *testing.T) {
	before := liveHeap()
	db := New()
	if err := db.CreateWisconsin("wisc", 30_000, 8, "unique2", 42); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateJoinPair("", 60_000, 6_000, 8, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadCSV("notes", strings.NewReader(notesCSV(20_000)), "id", 8); err != nil {
		t.Fatal(err)
	}
	for rel, col := range map[string]string{"wisc": "unique2", "A": "k", "B": "k", "Br": "k", "notes": "id"} {
		if err := db.ShardRelation(rel, col, 1, 3); err != nil {
			t.Fatal(err)
		}
	}
	// A recorded shard is generated when it is first named.
	for _, rel := range db.Relations() {
		if _, err := db.FragmentSizes(rel); err != nil {
			t.Fatal(err)
		}
	}
	sharded := liveHeap() - before

	// The reference: the same tuples copied afresh, strings included, into
	// regions sized for them, registered in a database of their own.
	ref := New()
	for name, p := range db.settled() {
		fresh := p.Rehome(nil)
		if err := ref.register(placed{fresh, db.resolver[name].Part}); err != nil {
			t.Fatal(err)
		}
	}
	built := liveHeap() - before - sharded
	runtime.KeepAlive(db)
	runtime.KeepAlive(ref)

	if n := db.settled()["wisc"].Cardinality(); n < 9_000 || n > 11_000 {
		t.Fatalf("shard holds %d of 30000 wisc tuples, want about a third", n)
	}
	if n := db.settled()["notes"].Cardinality(); n < 6_000 || n > 7_400 {
		t.Fatalf("shard holds %d of 20000 notes tuples, want about a third", n)
	}
	if diff := float64(sharded-built) / float64(built); diff > 0.05 || diff < -0.05 {
		t.Errorf("sharded database holds %d live bytes, one built from its tuples %d (%+.1f%%): want within 5%%", sharded, built, 100*diff)
	} else {
		t.Logf("sharded %d B, built %d B (%+.1f%%)", sharded, built, 100*diff)
	}
}

// TestShardRelationAllocatesPerRelation: generating a shard — ShardRelation
// records it, the first read generates it — is a keep bitmap, one region and
// one fragment table, whatever the cardinality.
func TestShardRelationAllocatesPerRelation(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	for _, n := range []int{3_000, 30_000} {
		var db *Database
		sizes := func() {
			if _, err := db.FragmentSizes("wisc"); err != nil {
				t.Fatal(err)
			}
		}
		shard := func() {
			if err := db.ShardRelation("wisc", "unique2", 1, 3); err != nil {
				t.Fatal(err)
			}
			sizes()
		}
		// AllocsPerRun calls once to warm up, then runs times: each call
		// needs an unsharded relation, so the loads are counted and
		// subtracted.
		load := func() {
			db = New()
			if err := db.CreateWisconsin("wisc", n, 8, "unique2", 1); err != nil {
				t.Fatal(err)
			}
		}
		loads := race.AllocsPerRun(3, load)
		both := race.AllocsPerRun(3, func() { load(); shard() })
		// FragmentSizes' result slice, read off the settled shard, is the
		// read's own.
		if got := both - loads - race.AllocsPerRun(3, sizes); got > 14 {
			t.Errorf("ShardRelation of %d tuples: %v allocations, want at most 14", n, got)
		}
	}
}

// TestShardRelationOnTextAllocatesAsOnInteger: a row is placed before it
// exists by its key's hash, a text's rendered into a buffer on the stack, so
// a Wisconsin relation keyed on stringu1, or a shard taken on it (recorded by
// ShardRelation, generated by the first read), costs the allocations one
// keyed or sharded on unique2 does, not one per row.
func TestShardRelationOnTextAllocatesAsOnInteger(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	const n = 20_000
	settle := func(key string) float64 {
		return race.AllocsPerRun(3, func() {
			db := New()
			if err := db.CreateWisconsin("w", n, 16, key, 1); err != nil {
				t.Fatal(err)
			}
			if _, err := db.FragmentSizes("w"); err != nil {
				t.Fatal(err)
			}
		})
	}
	// sizes is FragmentSizes' own result slice, read off a settled relation.
	settled := New()
	if err := settled.CreateWisconsin("w", n, 16, "unique2", 1); err != nil {
		t.Fatal(err)
	}
	sizes := race.AllocsPerRun(3, func() {
		if _, err := settled.FragmentSizes("w"); err != nil {
			t.Fatal(err)
		}
	})
	shard := func(col string) float64 {
		return race.AllocsPerRun(3, func() {
			db := New()
			if err := db.CreateWisconsin("w", n, 16, "unique2", 1); err != nil {
				t.Fatal(err)
			}
			if err := db.ShardRelation("w", col, 1, 3); err != nil {
				t.Fatal(err)
			}
			if _, err := db.FragmentSizes("w"); err != nil {
				t.Fatal(err)
			}
		}) - sizes
	}
	for what, got := range map[string][2]float64{
		"settled keyed on": {settle("stringu1"), settle("unique2")},
		"sharded on":       {shard("stringu1"), shard("unique2")},
	} {
		if got[0] > got[1]+2 {
			t.Errorf("%s stringu1: %v allocations, on unique2 %v: want at most 2 more", what, got[0], got[1])
		}
	}
}

// BenchmarkShardRelation is one cluster-open node's whole load: Wisconsin
// 20 000 at degree 8 and a 5 000/5 000 join pair at θ 0.5 created, then each
// relation sharded 1 of 3 on its distribution key and settled by
// FragmentSizes. ShardRelation only records a declared relation's shard, so
// the first read that names it generates it: the creation calls, the four
// ShardRelation calls and the four reads are timed together, and B/op is
// everything the node allocates to load.
func BenchmarkShardRelation(b *testing.B) {
	dist := [][2]string{{"wisc", "unique2"}, {"A", "k"}, {"B", "k"}, {"Br", "k"}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db := New()
		if err := db.CreateWisconsin("wisc", 20_000, 8, "unique2", 1); err != nil {
			b.Fatal(err)
		}
		if err := db.CreateJoinPair("", 5_000, 5_000, 8, 0.5); err != nil {
			b.Fatal(err)
		}
		for _, d := range dist {
			if err := db.ShardRelation(d[0], d[1], 1, 3); err != nil {
				b.Fatal(err)
			}
		}
		for _, d := range dist {
			if _, err := db.FragmentSizes(d[0]); err != nil {
				b.Fatal(err)
			}
		}
	}
}
