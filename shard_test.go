package dbs3

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"dbs3/internal/partition"
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
		n, err := db.Cardinality("wisc")
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 || n == card {
			t.Errorf("shard %d holds %d of %d tuples; hash split degenerate", i, n, card)
		}
		total += n
		rows, err := db.QueryAll("SELECT unique1, unique2 FROM wisc", nil)
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
	rows, err := full.QueryAll("SELECT unique1, unique2 FROM wisc", nil)
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
	region, err := db.shardRelation("wisc", "unique2", shard, shards)
	if err != nil {
		t.Fatal(err)
	}
	if err := region.Check(); err != nil {
		t.Fatal(err)
	}
	whole := full.rels["wisc"]
	h, err := partition.NewHash(whole.Schema, []string{"unique2"}, shards)
	if err != nil {
		t.Fatal(err)
	}
	kept := db.rels["wisc"]
	for f, frag := range whole.Fragments {
		var want []relation.Tuple
		for _, tup := range frag {
			if h.FragmentOf(tup) == shard {
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

// TestShardRelationKeepsFragmentStructure: sharding thins fragments but
// never changes the degree of partitioning — the local parallel plan shape
// survives.
func TestShardRelationKeepsFragmentStructure(t *testing.T) {
	db := New()
	if err := db.CreateWisconsin("wisc", 600, 4, "unique2", 42); err != nil {
		t.Fatal(err)
	}
	before, err := db.Degree("wisc")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ShardRelation("wisc", "unique2", 1, 3); err != nil {
		t.Fatal(err)
	}
	after, err := db.Degree("wisc")
	if err != nil {
		t.Fatal(err)
	}
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
	card, _ := db.Cardinality("wisc")
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
		rows, err := db.QueryAll("SELECT ten, COUNT(*) FROM wisc GROUP BY ten", nil)
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

// TestShardRelationReleasesDroppedTuples: base relations live in slabs, one
// surviving tuple pins its whole value chunk and one surviving string its
// whole arena, so a shard that merely kept its third of the tuples — or
// re-homed their values and left the strings where they were — would keep
// most of the memory. A database sharded 1-of-3 must weigh what a database
// built from just that third weighs.
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
	sharded := liveHeap() - before

	// The reference: the same tuples born afresh, strings included, in
	// regions sized for them, registered in a database of their own.
	ref := New()
	for name, p := range db.rels {
		values, strBytes := 0, 0
		for _, frag := range p.Fragments {
			for _, tup := range frag {
				values += len(tup)
				for _, v := range tup {
					if v.Kind() == relation.TString {
						strBytes += len(v.AsString())
					}
				}
			}
		}
		region := relation.NewRegion(p.Cardinality(), values, strBytes)
		for _, frag := range p.Fragments {
			for _, tup := range frag {
				region.Rehome(tup)
			}
		}
		frags := partition.Cut(region.Tuples(), p.FragmentSizes())
		fresh, err := partition.FromFragments(name, p.Schema, p.Key, frags, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.register(fresh, db.resolver[name].Part); err != nil {
			t.Fatal(err)
		}
	}
	built := liveHeap() - before - sharded
	runtime.KeepAlive(db)
	runtime.KeepAlive(ref)

	if n, _ := db.Cardinality("wisc"); n < 9_000 || n > 11_000 {
		t.Fatalf("shard holds %d of 30000 wisc tuples, want about a third", n)
	}
	if n, _ := db.Cardinality("notes"); n < 6_000 || n > 7_400 {
		t.Fatalf("shard holds %d of 20000 notes tuples, want about a third", n)
	}
	if diff := float64(sharded-built) / float64(built); diff > 0.05 || diff < -0.05 {
		t.Errorf("sharded database holds %d live bytes, one built from its tuples %d (%+.1f%%): want within 5%%", sharded, built, 100*diff)
	} else {
		t.Logf("sharded %d B, built %d B (%+.1f%%)", sharded, built, 100*diff)
	}
}

// TestShardRelationAllocatesPerRelation: a compaction is a keep bitmap, one
// region and one fragment table, whatever the cardinality.
func TestShardRelationAllocatesPerRelation(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	for _, n := range []int{3_000, 30_000} {
		var db *Database
		shard := func() {
			if err := db.ShardRelation("wisc", "unique2", 1, 3); err != nil {
				t.Fatal(err)
			}
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
		loads := testing.AllocsPerRun(3, load)
		both := testing.AllocsPerRun(3, func() { load(); shard() })
		if got := both - loads; got > 14 {
			t.Errorf("ShardRelation of %d tuples: %v allocations, want at most 14", n, got)
		}
	}
}
