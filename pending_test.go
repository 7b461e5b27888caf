package dbs3

import (
	"context"
	"fmt"
	"io"
	"maps"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dbs3/internal/partition"
	"dbs3/internal/race"
	"dbs3/internal/relation"
)

// TestPendingShardMatchesRehome: a shard generated from a declared relation
// is the shard re-homed out of the whole relation once it is generated —
// fragment by fragment, tuple by tuple, in string bytes — in a region that
// holds no pointer out of itself, and the shards of every node union to the
// whole relation, each row on exactly one. The relation has 1, 3, 63, 65 or
// 1 500 rows (too few to use every string4 constant, and either side of a
// 64-text mark word), is keyed on unique2 or unique1, at degrees 1, 8 and 16,
// and is cut into 1 to 4 shards on its key, the other unique column, a
// ten-valued column, a two-valued one (past two shards, some keep nothing)
// and a string column.
func TestPendingShardMatchesRehome(t *testing.T) {
	const seed = 5
	for _, card := range []int{1, 3, 63, 65, 1_500} {
		for _, key := range []string{"unique2", "unique1"} {
			for _, degree := range []int{1, 8, 16} {
				testPendingShards(t, card, key, degree, seed)
			}
		}
	}
}

// testPendingShards is TestPendingShardMatchesRehome for one relation.
func testPendingShards(t *testing.T, card int, key string, degree int, seed int64) {
	t.Helper()
	whole := New()
	if err := whole.CreateWisconsin("w", card, degree, key, seed); err != nil {
		t.Fatal(err)
	}
	settled := whole.settled()["w"]
	for _, col := range []string{"unique2", "unique1", "ten", "two", "stringu1"} {
		cols := []int{relation.WisconsinSchema.MustIndex(col)}
		for shards := 1; shards <= 4; shards++ {
			on := make([]int, card) // shards holding row unique2
			for shard := 0; shard < shards; shard++ {
				name := fmt.Sprintf("%d rows, key %s, degree %d, on %s, shard %d of %d", card, key, degree, col, shard, shards)
				db := New()
				if err := db.CreateWisconsin("w", card, degree, key, seed); err != nil {
					t.Fatal(err)
				}
				if err := db.ShardRelation("w", col, shard, shards); err != nil {
					t.Fatal(err)
				}
				sizes, err := db.FragmentSizes("w")
				if err != nil {
					t.Fatal(err)
				}
				want := settled.Rehome(func(tup relation.Tuple) bool { return shardOf(tup, cols, shards) == shard })
				checkShard(t, name, db.settled()["w"], want, sizes)
				for _, frag := range want.Fragments {
					for _, tup := range frag {
						on[tup[1].AsInt()]++
					}
				}
			}
			for u2, n := range on {
				if n != 1 {
					t.Fatalf("%d rows, key %s, degree %d, on %s, %d shards: row %d is on %d shards", card, key, degree, col, shards, u2, n)
				}
			}
		}
	}
}

// checkShard checks got, a shard generated from a declaration, against want,
// the same shard re-homed out of the settled relation: the same name, key and
// degree, fragment by fragment and tuple by tuple, in string bytes, in a
// region that holds no pointer out of itself. sizes is what FragmentSizes
// read of got.
func checkShard(t *testing.T, what string, got, want *partition.Partitioned, sizes []int) {
	t.Helper()
	if err := got.Region.Check(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if g, w := got.Region.StringBytes(), want.Region.StringBytes(); g != w {
		t.Errorf("%s: %d string bytes, re-homed %d", what, g, w)
	}
	if got.Name != want.Name || strings.Join(got.Key, ",") != strings.Join(want.Key, ",") || got.Degree() != want.Degree() {
		t.Fatalf("%s: %s keyed on %v at degree %d, re-homed %s keyed on %v at degree %d", what, got.Name, got.Key, got.Degree(), want.Name, want.Key, want.Degree())
	}
	for f, frag := range want.Fragments {
		if len(got.Fragments[f]) != len(frag) || sizes[f] != len(frag) {
			t.Fatalf("%s: fragment %d holds %d rows (sizes say %d), re-homed %d", what, f, len(got.Fragments[f]), sizes[f], len(frag))
		}
		for i, tup := range frag {
			if !got.Fragments[f][i].Equal(tup) {
				t.Fatalf("%s: fragment %d row %d is %v, re-homed %v", what, f, i, got.Fragments[f][i], tup)
			}
		}
	}
}

// TestPendingShardRelationGeneratesNothing: ShardRelation of a declared
// relation records the shard and generates nothing — the relation stays
// pending, and the call allocates less than 64 KiB where a third of a
// 1 000 000-row relation is tens of megabytes — and the first statement
// that names the relation reads exactly the shard Rehome keeps of the whole
// one, tuple for tuple. Under the race detector, whose shadow memory takes
// the whole relation Rehome reads past 1.8 GB, the relation is a tenth the
// size.
func TestPendingShardRelationGeneratesNothing(t *testing.T) {
	const degree, seed, shard, shards = 8, 3, 1, 3
	card := 1_000_000
	if race.Enabled {
		card /= 10
	}
	db := New()
	if err := db.CreateWisconsin("w", card, degree, "unique2", seed); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := db.ShardRelation("w", "unique2", shard, shards)
	runtime.ReadMemStats(&after)
	debug.SetGCPercent(gc)
	if err != nil {
		t.Fatal(err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Errorf("ShardRelation allocated %d bytes, want under 64 KiB", n)
	}
	if registered, pending := catalogState(db); registered != "" || pending != "w" {
		t.Fatalf("after ShardRelation: registered [%s] and pending [%s], want none and [w]", registered, pending)
	}

	res, err := db.QueryAllContext(context.Background(), "SELECT two, COUNT(*) FROM w GROUP BY two", nil)
	if err != nil {
		t.Fatal(err)
	}
	var counted int64
	for _, row := range res.Data {
		counted += row[1].(int64)
	}
	whole := New()
	if err := whole.CreateWisconsin("w", card, degree, "unique2", seed); err != nil {
		t.Fatal(err)
	}
	cols := []int{relation.WisconsinSchema.MustIndex("unique2")}
	want := whole.settled()["w"].Rehome(func(tup relation.Tuple) bool { return shardOf(tup, cols, shards) == shard })
	if counted != int64(want.Cardinality()) {
		t.Errorf("the first statement counted %d rows, the re-homed shard holds %d", counted, want.Cardinality())
	}
	sizes, err := db.FragmentSizes("w")
	if err != nil {
		t.Fatal(err)
	}
	checkShard(t, "the shard the first statement named", db.settled()["w"], want, sizes)
}

// TestPendingShardOfShardMatchesRehome: a second ShardRelation of a declared
// relation generates the shard the first recorded and re-homes its own shard
// out of it: the relation two Rehomes of the settled one keep, for a
// Wisconsin relation and for each join-pair member, on the same column and
// on another.
func TestPendingShardOfShardMatchesRehome(t *testing.T) {
	type cut struct {
		col           string
		shard, shards int
	}
	create := func(db *Database) error {
		if err := db.CreateWisconsin("w", 1_500, 8, "unique2", 9); err != nil {
			return err
		}
		return db.CreateJoinPair("", 700, 240, 8, 0.5)
	}
	whole := New()
	if err := create(whole); err != nil {
		t.Fatal(err)
	}
	settled := whole.settled()
	for _, tc := range []struct {
		rel           string
		first, second cut
	}{
		{"w", cut{"unique2", 1, 3}, cut{"unique2", 0, 2}},
		{"w", cut{"unique2", 2, 3}, cut{"ten", 1, 2}},
		{"A", cut{"k", 0, 2}, cut{"id", 1, 3}},
		{"B", cut{"k", 1, 3}, cut{"k", 1, 2}},
		{"Br", cut{"id", 2, 4}, cut{"pad", 0, 2}},
	} {
		what := fmt.Sprintf("%s on %s, %d of %d, then on %s, %d of %d", tc.rel, tc.first.col, tc.first.shard, tc.first.shards, tc.second.col, tc.second.shard, tc.second.shards)
		db := New()
		if err := create(db); err != nil {
			t.Fatal(err)
		}
		want := settled[tc.rel]
		for _, c := range []cut{tc.first, tc.second} {
			if err := db.ShardRelation(tc.rel, c.col, c.shard, c.shards); err != nil {
				t.Fatal(err)
			}
			cols := []int{want.Schema.MustIndex(c.col)}
			want = want.Rehome(func(tup relation.Tuple) bool { return shardOf(tup, cols, c.shards) == c.shard })
		}
		if db.declared(tc.rel) >= 0 {
			t.Fatalf("%s: still pending after the second ShardRelation", what)
		}
		sizes, err := db.FragmentSizes(tc.rel)
		if err != nil {
			t.Fatal(err)
		}
		checkShard(t, what, db.settled()[tc.rel], want, sizes)
	}
}

// TestCreateWisconsinEqualsPartition: a settled Wisconsin relation, the one
// shard of one its declaration generates, is the relation Partition builds by
// routing the tuples of the materialized relation: the same fragments, the
// same tuples in the same order, exactly sized, for hash placement on the
// permuted key, the sequential key and a string at several degrees.
func TestCreateWisconsinEqualsPartition(t *testing.T) {
	const n, seed = 1000, 5
	r := relation.Wisconsin("A", n, seed)
	for _, key := range []string{"unique1", "unique2", "stringu1"} {
		for _, degree := range []int{1, 5, 7, 16} {
			name := fmt.Sprintf("hash on %s at degree %d", key, degree)
			h, err := partition.NewHash(r.Schema, []string{key}, degree)
			if err != nil {
				t.Fatal(err)
			}
			want, err := partition.Partition(r, h, 1)
			if err != nil {
				t.Fatal(err)
			}
			db := New()
			if err := db.CreateWisconsin("A", n, degree, key, seed); err != nil {
				t.Fatal(err)
			}
			got := db.settled()["A"]
			sizes, err := db.FragmentSizes("A")
			if err != nil {
				t.Fatal(err)
			}
			if got.Name != want.Name || got.Degree() != degree || strings.Join(got.Key, ",") != strings.Join(want.Key, ",") {
				t.Fatalf("%s: settled %s keyed on %v at degree %d, partitioned %s keyed on %v", name, got.Name, got.Key, got.Degree(), want.Name, want.Key)
			}
			for i, frag := range want.Fragments {
				if len(got.Fragments[i]) != len(frag) || cap(got.Fragments[i]) != len(frag) || sizes[i] != len(frag) {
					t.Fatalf("%s fragment %d: %d tuples (cap %d, sizes say %d), want %d", name, i,
						len(got.Fragments[i]), cap(got.Fragments[i]), sizes[i], len(frag))
				}
				for j, tup := range frag {
					if !got.Fragments[i][j].Equal(tup) {
						t.Fatalf("%s fragment %d position %d: %v, want %v", name, i, j, got.Fragments[i][j], tup)
					}
				}
			}
		}
	}
}

// TestCreateWisconsinRegionChecks: the region a settled Wisconsin relation is
// cut from, and the one Partition copies a CSV import into, holds every tuple
// and no pointer out of itself, whichever attribute places the rows.
func TestCreateWisconsinRegionChecks(t *testing.T) {
	const n, seed = 1000, 5
	var dump strings.Builder
	if err := relation.Wisconsin("A", n, seed).WriteCSV(&dump); err != nil {
		t.Fatal(err)
	}
	imported, err := relation.ReadCSV("A", strings.NewReader(dump.String()))
	if err != nil {
		t.Fatal(err)
	}
	checkRegion := func(name string, p *partition.Partitioned) {
		t.Helper()
		if err := p.Region.Check(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if got := len(p.Region.Tuples()); got != n || p.Cardinality() != n {
			t.Errorf("%s: region holds %d tuples, fragments %d, want %d", name, got, p.Cardinality(), n)
		}
	}
	for _, key := range []string{"unique1", "unique2", "stringu1"} {
		for _, degree := range []int{1, 5, 7, 16} {
			name := fmt.Sprintf("hash on %s at degree %d", key, degree)
			db := New()
			if err := db.CreateWisconsin("A", n, degree, key, seed); err != nil {
				t.Fatal(err)
			}
			if _, err := db.FragmentSizes("A"); err != nil {
				t.Fatal(err)
			}
			checkRegion(name, db.settled()["A"])
			h, err := partition.NewHash(imported.Schema, []string{key}, degree)
			if err != nil {
				t.Fatal(err)
			}
			fromCSV, err := partition.Partition(imported, h, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkRegion(name+", Partition of a CSV import", fromCSV)
		}
	}
}

// TestPendingRelationIsCatalogued: a declared relation is listed and its
// name is taken, though none of it exists yet.
func TestPendingRelationIsCatalogued(t *testing.T) {
	db := New()
	if err := db.CreateWisconsin("w", 1_000, 4, "unique2", 1); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateWisconsin("A", 1_000, 4, "unique2", 1); err != nil {
		t.Fatal(err)
	}
	if names := db.Relations(); strings.Join(names, ",") != "A,w" {
		t.Errorf("relations = %v, want [A w]", names)
	}
	if len(db.pending) != 2 || len(db.rels) != 0 {
		t.Fatalf("listing generated relations: %d pending, %d registered", len(db.pending), len(db.rels))
	}
	epoch := db.epoch.Load()
	for name, create := range map[string]func() error{
		"CreateWisconsin": func() error { return db.CreateWisconsin("w", 10, 2, "unique2", 2) },
		"LoadCSV":         func() error { return db.LoadCSV("w", strings.NewReader(ordersCSV), "order", 2) },
		"CreateJoinPair":  func() error { return db.CreateJoinPair("", 100, 20, 4, 0) },
	} {
		if err := create(); err == nil || !strings.Contains(err.Error(), "already exists") {
			t.Errorf("%s over a pending name: %v", name, err)
		}
	}
	if got := db.epoch.Load(); got != epoch || len(db.pending) != 2 || len(db.rels) != 0 {
		t.Errorf("rejected creations moved the epoch %d -> %d or the catalog (%d pending, %d registered)", epoch, got, len(db.pending), len(db.rels))
	}
}

// TestPendingRelationSettlesOnRead: each read of the catalog's rows — a
// query, Prepare, ExplainContext, FragmentSizes, DumpCSV — generates the
// declared relations it names and no other, and leaves the plan cache's
// epoch alone: no plan was compiled against a relation that did not exist.
// Installing a manager names none and generates none.
func TestPendingRelationSettlesOnRead(t *testing.T) {
	ctx := context.Background()
	cards := map[string]int{"w": 1_000, "v": 500, "u": 300}
	for name, tc := range map[string]struct {
		read  func(db *Database) error
		names string // what the read names, sorted
	}{
		"Manager": {func(db *Database) error { db.Manager(ManagerConfig{Budget: 2}); return nil }, ""},
		"query": {func(db *Database) error {
			res, err := db.QueryAllContext(ctx, "SELECT unique2 FROM w WHERE unique1 < 10", nil)
			if err == nil && len(res.Data) != 10 {
				err = fmt.Errorf("%d rows, want 10", len(res.Data))
			}
			return err
		}, "w"},
		"join": {func(db *Database) error {
			res, err := db.QueryAllContext(ctx, "SELECT v.unique1 FROM w JOIN v ON w.unique2 = v.unique2", nil)
			if err == nil && len(res.Data) != 500 {
				err = fmt.Errorf("%d rows, want 500", len(res.Data))
			}
			return err
		}, "v,w"},
		"Prepare": {func(db *Database) error { _, err := db.Prepare("SELECT * FROM v", nil); return err }, "v"},
		"ExplainContext": {func(db *Database) error {
			_, err := db.ExplainContext(ctx, "SELECT ten, COUNT(*) FROM u GROUP BY ten", nil)
			return err
		}, "u"},
		"FragmentSizes": {func(db *Database) error {
			_, err := db.FragmentSizes("w")
			return err
		}, "w"},
		"DumpCSV": {func(db *Database) error { return db.DumpCSV("v", io.Discard) }, "v"},
	} {
		db := New()
		for i, rel := range []string{"w", "v", "u"} {
			if err := db.CreateWisconsin(rel, cards[rel], 4-i, []string{"unique2", "unique1"}[i%2], int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		epoch := db.epoch.Load()
		if err := tc.read(db); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		registered, pending := catalogState(db)
		if registered != tc.names || pending != unnamed("u,v,w", tc.names) {
			t.Errorf("%s: registered [%s] and pending [%s], want [%s] registered and the rest pending", name, registered, pending, tc.names)
		}
		if got := db.epoch.Load(); got != epoch {
			t.Errorf("%s: settling moved the epoch %d -> %d", name, epoch, got)
		}
		for rel, p := range db.rels {
			if p.Cardinality() != cards[rel] {
				t.Errorf("%s: settled %s holds %d rows, want %d", name, rel, p.Cardinality(), cards[rel])
			}
		}
	}
}

// catalogState names the registered and the pending relations, each sorted
// and comma-separated.
func catalogState(db *Database) (registered, pending string) {
	pending = strings.Join(db.Pending(), ",")
	db.mu.RLock()
	defer db.mu.RUnlock()
	return strings.Join(slices.Sorted(maps.Keys(db.rels)), ","), pending
}

// unnamed is the sorted, comma-separated list all less what names names.
func unnamed(all, names string) string {
	named := strings.Split(names, ",")
	return strings.Join(slices.DeleteFunc(strings.Split(all, ","), func(n string) bool { return slices.Contains(named, n) }), ",")
}

// TestPendingRelationSettlesUnderConcurrentReads: queries that arrive
// together at a database of declared relations, naming two of its three,
// all see the whole of what they name; the two are generated, and the one
// nothing names stays pending.
func TestPendingRelationSettlesUnderConcurrentReads(t *testing.T) {
	rels := []struct {
		name string
		card int
	}{{"w", 2_000}, {"v", 1_000}, {"u", 500}}
	db := New()
	for i, r := range rels {
		if err := db.CreateWisconsin(r.name, r.card, 8, "unique2", int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		r := rels[i%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := db.QueryAllContext(context.Background(), "SELECT ten, COUNT(*) FROM "+r.name+" GROUP BY ten", nil)
			if err != nil {
				errs <- err
				return
			}
			var n int64
			for _, row := range res.Data {
				n += row[1].(int64)
			}
			if n != int64(r.card) {
				errs <- fmt.Errorf("%s: counted %d rows, want %d", r.name, n, r.card)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if registered, pending := catalogState(db); registered != "v,w" || pending != "u" {
		t.Errorf("registered [%s] and pending [%s], want [v,w] and [u]", registered, pending)
	}
}

// TestPendingSettleHeldStopsOnlyWhatItNames: while one relation's settle is
// held open, a prepared point query over a settled relation completes, and
// two statements that name the held relation do not; a ShardRelation of the
// held relation completes too. Once the settle is released both statements
// complete, the relation generated once for both, and if the shard landed
// meanwhile the shard is what they read and what stays installed.
func TestPendingSettleHeldStopsOnlyWhatItNames(t *testing.T) {
	const card, wait = 2_000, 2 * time.Second
	ctx := context.Background()
	within := func(what string, done <-chan error) {
		t.Helper()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(wait):
			t.Fatalf("%s: not done after %v", what, wait)
		}
	}
	type counted struct {
		n   int64
		err error
	}
	for _, shardMeanwhile := range []bool{false, true} {
		db := New()
		for i, name := range []string{"short", "held"} {
			if err := db.CreateWisconsin(name, card, 8, "unique2", int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := db.FragmentSizes("short"); err != nil {
			t.Fatal(err)
		}
		stmt, err := db.Prepare("SELECT * FROM short WHERE unique2 = ?", nil)
		if err != nil {
			t.Fatal(err)
		}
		release := make(chan struct{})
		var once sync.Once
		free := func() { once.Do(func() { close(release) }) }
		defer free()
		held := db.holdSettle("held", release)
		results := make(chan counted, 2)
		for range 2 {
			go func() {
				res, err := db.QueryAllContext(ctx, "SELECT ten, COUNT(*) FROM held GROUP BY ten", nil)
				var n int64
				if err == nil {
					for _, row := range res.Data {
						n += row[1].(int64)
					}
				}
				results <- counted{n, err}
			}()
		}
		select {
		case <-held.started:
		case <-time.After(wait):
			t.Fatalf("the held settle did not start within %v", wait)
		}
		point := make(chan error, 1)
		go func() {
			rows, err := stmt.QueryContext(ctx, 7)
			if err != nil {
				point <- err
				return
			}
			n := 0
			for rows.Next() {
				n++
			}
			if err := rows.Err(); err != nil || n != 1 {
				point <- fmt.Errorf("%d rows, error %v", n, err)
				return
			}
			point <- nil
		}()
		within("a point query over a settled relation during a held settle", point)
		select {
		case r := <-results:
			t.Fatalf("a statement naming the held relation completed while its settle was held (%d rows, error %v)", r.n, r.err)
		default:
		}
		if shardMeanwhile {
			sharded := make(chan error, 1)
			go func() { sharded <- db.ShardRelation("held", "unique2", 1, 3) }()
			within("ShardRelation of the held relation", sharded)
		}
		free()
		want := int64(card)
		if shardMeanwhile {
			want = int64(db.settled()["held"].Cardinality())
			if want == 0 || want >= card {
				t.Errorf("the installed relation holds %d rows, want a shard of %d", want, card)
			}
		}
		for range 2 {
			select {
			case r := <-results:
				if r.err != nil || r.n != want {
					t.Errorf("shard meanwhile %v: a statement naming the held relation counted %d rows, error %v; want %d", shardMeanwhile, r.n, r.err, want)
				}
			case <-time.After(wait):
				t.Fatalf("a statement naming the held relation not done %v after release", wait)
			}
		}
		if n := held.settles.Load(); n != 1 {
			t.Errorf("shard meanwhile %v: the held relation settled %d times, want once", shardMeanwhile, n)
		}
		if registered, pending := catalogState(db); registered != "held,short" || pending != "" {
			t.Errorf("registered [%s] and pending [%s], want [held,short] and none", registered, pending)
		}
	}
}

// TestPendingPairShardMatchesRehome: a shard generated from a declared join
// pair's member is the shard re-homed out of the settled member — fragment by
// fragment, tuple by tuple, in string bytes — in a region that holds no
// pointer out of itself, and the shards of every node union to the whole
// member, each row on exactly one. Every member (A, B and Br) is cut into 1
// to 4 shards on k, on id and on pad (one constant per member: some shards
// keep all of it, the others nothing), at θ 0, 0.5 and 1, with and without a
// prefix; sharding one member leaves all three pending, and naming it then
// generates that member alone.
func TestPendingPairShardMatchesRehome(t *testing.T) {
	const aCard, bCard, degree = 700, 240, 8
	for _, prefix := range []string{"", "x"} {
		for _, theta := range []float64{0, 0.5, 1} {
			whole := New()
			if err := whole.CreateJoinPair(prefix, aCard, bCard, degree, theta); err != nil {
				t.Fatal(err)
			}
			settled := whole.settled()
			for _, member := range []string{"A", "B", "Br"} {
				name := prefix + member
				rel := settled[name]
				for _, col := range []string{"k", "id", "pad"} {
					cols := []int{rel.Schema.MustIndex(col)}
					for shards := 1; shards <= 4; shards++ {
						on := make([]int, rel.Cardinality()) // shards holding row id
						for shard := 0; shard < shards; shard++ {
							what := fmt.Sprintf("θ %v, %s on %s, shard %d of %d", theta, name, col, shard, shards)
							db := New()
							if err := db.CreateJoinPair(prefix, aCard, bCard, degree, theta); err != nil {
								t.Fatal(err)
							}
							if err := db.ShardRelation(name, col, shard, shards); err != nil {
								t.Fatal(err)
							}
							if len(db.pending) != 3 {
								t.Fatalf("%s: %d relations pending after ShardRelation, want all three members", what, len(db.pending))
							}
							sizes, err := db.FragmentSizes(name)
							if err != nil {
								t.Fatal(err)
							}
							if len(db.pending) != 2 || db.declared(name) >= 0 {
								t.Fatalf("%s: naming it left %v pending, want the other two members", what, db.Pending())
							}
							want := rel.Rehome(func(tup relation.Tuple) bool { return shardOf(tup, cols, shards) == shard })
							checkShard(t, what, db.settled()[name], want, sizes)
							for _, frag := range want.Fragments {
								for _, tup := range frag {
									on[tup[1].AsInt()]++
								}
							}
						}
						for id, n := range on {
							if n != 1 {
								t.Fatalf("θ %v, %s on %s, %d shards: row %d is on %d shards", theta, name, col, shards, id, n)
							}
						}
					}
				}
			}
		}
	}
}

// TestPendingPairIsCatalogued: a declared join pair is listed and its three
// names are taken, though none of it exists yet; a pair whose arguments
// NewJoinDB refuses, or one of whose names is taken, declares none of its
// members and leaves the epoch alone.
func TestPendingPairIsCatalogued(t *testing.T) {
	db := New()
	if err := db.CreateJoinPair("x", 1_000, 40, 4, 0.5); err != nil {
		t.Fatal(err)
	}
	if names := db.Relations(); strings.Join(names, ",") != "xA,xB,xBr" {
		t.Errorf("relations = %v, want [xA xB xBr]", names)
	}
	if len(db.pending) != 3 || len(db.rels) != 0 {
		t.Fatalf("listing generated relations: %d pending, %d registered", len(db.pending), len(db.rels))
	}
	if err := db.LoadCSV("B", strings.NewReader(ordersCSV), "order", 2); err != nil {
		t.Fatal(err)
	}
	epoch := db.epoch.Load()
	for name, create := range map[string]func() error{
		"a pair over a declared member":   func() error { return db.CreateJoinPair("x", 100, 20, 4, 0) },
		"a pair over a registered member": func() error { return db.CreateJoinPair("", 100, 20, 4, 0) },
		"a Wisconsin relation over xBr":   func() error { return db.CreateWisconsin("xBr", 10, 2, "unique2", 2) },
	} {
		if err := create(); err == nil || !strings.Contains(err.Error(), "already exists") {
			t.Errorf("%s: %v", name, err)
		}
	}
	for name, create := range map[string]func() error{
		"bCard not a multiple of the degree": func() error { return db.CreateJoinPair("y", 100, 21, 4, 0) },
		"a negative skew":                    func() error { return db.CreateJoinPair("y", 100, 20, 4, -1) },
		"no degree":                          func() error { return db.CreateJoinPair("y", 100, 20, 0, 0) },
	} {
		if err := create(); err == nil {
			t.Errorf("%s: declared", name)
		}
	}
	if got := db.epoch.Load(); got != epoch || len(db.pending) != 3 || len(db.rels) != 1 {
		t.Errorf("rejected creations moved the epoch %d -> %d or the catalog (%d pending, %d registered)", epoch, got, len(db.pending), len(db.rels))
	}
}

// TestPendingPairSettlesOnRead: each read of the catalog's rows generates
// the members of a declared pair it names and no other, each into a region
// of its own, and leaves the epoch alone; a join then matches every A row
// once, and the members nothing named, settled afterwards, complete the
// pair, each in a region of its own.
func TestPendingPairSettlesOnRead(t *testing.T) {
	ctx := context.Background()
	const aCard, bCard = 1_000, 80
	join := func(db *Database, sql string) error {
		res, err := db.QueryAllContext(ctx, sql, nil)
		if err == nil && len(res.Data) != aCard {
			err = fmt.Errorf("%s: %d rows, want %d", sql, len(res.Data), aCard)
		}
		return err
	}
	for name, tc := range map[string]struct {
		read  func(db *Database) error
		names string // what the read names, sorted
	}{
		"Manager": {func(db *Database) error { db.Manager(ManagerConfig{Budget: 2}); return nil }, ""},
		"query": {func(db *Database) error {
			_, err := db.QueryAllContext(ctx, "SELECT id FROM B WHERE k < 10", nil)
			return err
		}, "B"},
		"join on B":  {func(db *Database) error { return join(db, "SELECT A.id FROM A JOIN B ON A.k = B.k") }, "A,B"},
		"join on Br": {func(db *Database) error { return join(db, "SELECT A.id FROM A JOIN Br ON A.k = Br.k") }, "A,Br"},
		"Prepare":    {func(db *Database) error { _, err := db.Prepare("SELECT * FROM Br", nil); return err }, "Br"},
		"ExplainContext": {func(db *Database) error {
			_, err := db.ExplainContext(ctx, "SELECT k, COUNT(*) FROM B GROUP BY k", nil)
			return err
		}, "B"},
		"FragmentSizes": {func(db *Database) error {
			_, err := db.FragmentSizes("A")
			return err
		}, "A"},
		"DumpCSV": {func(db *Database) error { return db.DumpCSV("Br", io.Discard) }, "Br"},
	} {
		db := New()
		if err := db.CreateJoinPair("", aCard, bCard, 4, 1); err != nil {
			t.Fatal(err)
		}
		epoch := db.epoch.Load()
		if err := tc.read(db); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		registered, pending := catalogState(db)
		if registered != tc.names || pending != unnamed("A,B,Br", tc.names) {
			t.Errorf("%s: registered [%s] and pending [%s], want [%s] registered and the rest pending", name, registered, pending, tc.names)
		}
		if got := db.epoch.Load(); got != epoch {
			t.Errorf("%s: settling moved the epoch %d -> %d", name, epoch, got)
		}
		checkSettledPair(t, name, db, "", aCard, bCard)
	}
}

// TestPendingPairMemberSettlesAlone: once A is sharded, A is still pending;
// settling B then generates B's region and nothing of A: it allocates fewer
// bytes than A's region of 72 bytes a row would take (measured with the
// collector paused), and leaves A and Br pending. Naming A then generates
// A's shard alone, and Br settles into a region of its own.
func TestPendingPairMemberSettlesAlone(t *testing.T) {
	const aCard, bCard = 20_000, 400
	db := New()
	if err := db.CreateJoinPair("", aCard, bCard, 8, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := db.ShardRelation("A", "k", 0, 2); err != nil {
		t.Fatal(err)
	}
	if registered, pending := catalogState(db); registered != "" || pending != "A,B,Br" {
		t.Errorf("after sharding A: registered [%s] and pending [%s], want none and [A,B,Br]", registered, pending)
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := db.FragmentSizes("B"); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n, limit := after.TotalAlloc-before.TotalAlloc, uint64(aCard*72); n >= limit {
		t.Errorf("settling B allocated %d bytes, A's region alone is %d", n, limit)
	}
	if registered, pending := catalogState(db); registered != "B" || pending != "A,Br" {
		t.Errorf("registered [%s] and pending [%s], want [B] and [A,Br]", registered, pending)
	}
	if _, err := db.FragmentSizes("A"); err != nil {
		t.Fatal(err)
	}
	if registered, pending := catalogState(db); registered != "A,B" || pending != "Br" {
		t.Errorf("registered [%s] and pending [%s], want [A,B] and [Br]", registered, pending)
	}
	rels := db.settled()
	if a := rels["A"].Cardinality(); a == 0 || a >= aCard {
		t.Errorf("A holds %d rows, want its shard, 0 of 2, of %d", a, aCard)
	}
	if b, br := rels["B"], rels["Br"]; b.Region == br.Region || br.Cardinality() != bCard {
		t.Errorf("Br holds %d rows, want %d; shares B's region: %v", br.Cardinality(), bCard, b.Region == br.Region)
	}
}

// TestPendingPairSettlesUnderConcurrentReads: joins of A with B and with Br,
// and scans of Br, that arrive together at a database of two declared pairs,
// naming every member of one and nothing of the other, all see the whole of
// what they name: each join matches every A row once, the first pair is
// generated with each member in a region of its own, and the second stays
// pending.
func TestPendingPairSettlesUnderConcurrentReads(t *testing.T) {
	const aCard, bCard = 2_000, 160
	db := New()
	if err := db.CreateJoinPair("p", aCard, bCard, 8, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateJoinPair("q", 100, 16, 4, 0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for i := 0; i < 12; i++ {
		sql, want := "SELECT pA.id FROM pA JOIN pB ON pA.k = pB.k", aCard
		switch i % 3 {
		case 1:
			sql = "SELECT pA.id FROM pA JOIN pBr ON pA.k = pBr.k"
		case 2:
			sql, want = "SELECT id FROM pBr WHERE k < 16", 16
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := db.QueryAllContext(context.Background(), sql, nil)
			if err == nil && len(res.Data) != want {
				err = fmt.Errorf("%s: %d rows, want %d", sql, len(res.Data), want)
			}
			if err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if registered, pending := catalogState(db); registered != "pA,pB,pBr" || pending != "qA,qB,qBr" {
		t.Errorf("registered [%s] and pending [%s], want [pA,pB,pBr] and [qA,qB,qBr]", registered, pending)
	}
	checkSettledPair(t, "concurrent reads", db, "p", aCard, bCard)
}

// checkSettledPair checks a settled pair: each member is registered under its
// name with the cardinality it was declared with, in a region of its own,
// and each region passes its Check.
func checkSettledPair(t *testing.T, what string, db *Database, prefix string, aCard, bCard int) {
	t.Helper()
	rels := db.settled()
	a, b, br := rels[prefix+"A"], rels[prefix+"B"], rels[prefix+"Br"]
	if a == nil || b == nil || br == nil {
		t.Fatalf("%s: settled members A %v, B %v, Br %v", what, a != nil, b != nil, br != nil)
	}
	if a.Name != prefix+"A" || b.Name != prefix+"B" || br.Name != prefix+"Br" {
		t.Errorf("%s: settled members are named %s, %s and %s", what, a.Name, b.Name, br.Name)
	}
	if a.Cardinality() != aCard || b.Cardinality() != bCard || br.Cardinality() != bCard {
		t.Errorf("%s: settled members hold %d, %d and %d rows, want %d, %d and %d", what, a.Cardinality(), b.Cardinality(), br.Cardinality(), aCard, bCard, bCard)
	}
	if a.Region == b.Region || b.Region == br.Region || a.Region == br.Region {
		t.Errorf("%s: members share a region: A and B %v, B and Br %v, A and Br %v", what, a.Region == b.Region, b.Region == br.Region, a.Region == br.Region)
	}
	for _, p := range []*partition.Partitioned{a, b, br} {
		if err := p.Region.Check(); err != nil {
			t.Errorf("%s: %s: %v", what, p.Name, err)
		}
	}
}
