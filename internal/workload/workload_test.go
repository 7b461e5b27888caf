package workload

import (
	"math"
	"testing"

	"dbs3/internal/lera"
	"dbs3/internal/partition"
	"dbs3/internal/race"
	"dbs3/internal/relation"
	"dbs3/internal/zipf"
)

func TestNewJoinDBValidation(t *testing.T) {
	for _, c := range []struct {
		name            string
		aCard, bCard, d int
		theta           float64
	}{
		{"degree 0", 100, 10, 0, 0},
		{"BCard not multiple of d", 100, 15, 10, 0},
		{"zero ACard", 0, 10, 10, 0},
		{"ACard past MaxInt32", math.MaxInt32 + 1, 10, 10, 0},
		{"BCard past MaxInt32", 100, 1 << 31, 8, 0},
		{"negative theta", 100, 10, 10, -1},
		{"NaN theta", 100, 10, 10, math.NaN()},
	} {
		if _, err := NewJoinDB(c.aCard, c.bCard, c.d, c.theta); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	// Infinite skew is valid: every A tuple lands in fragment 0.
	db, err := NewJoinDB(100, 10, 10, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if sizes := db.A.FragmentSizes(); sizes[0] != 100 {
		t.Errorf("theta +Inf fragment sizes = %v, want all 100 in fragment 0", sizes)
	}
}

func TestJoinDBCardinalities(t *testing.T) {
	db, err := NewJoinDB(1000, 100, 20, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if db.A.Cardinality() != 1000 || db.B.Cardinality() != 100 || db.Br.Cardinality() != 100 {
		t.Fatalf("cardinalities: A=%d B=%d Br=%d", db.A.Cardinality(), db.B.Cardinality(), db.Br.Cardinality())
	}
	if db.A.Degree() != 20 || db.B.Degree() != 20 || db.Br.Degree() != 20 {
		t.Fatal("degrees wrong")
	}
}

func TestJoinDBSkewMatchesZipf(t *testing.T) {
	db, err := NewJoinDB(10000, 200, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := zipf.Sizes(10000, 20, 1)
	got := db.A.FragmentSizes()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fragment %d size %d, want %d", i, got[i], want[i])
		}
	}
	// B must be uniform.
	for i, s := range db.B.FragmentSizes() {
		if s != 10 {
			t.Fatalf("B fragment %d size %d, want 10", i, s)
		}
	}
}

func TestJoinDBPlacementInvariants(t *testing.T) {
	db, err := NewJoinDB(500, 100, 10, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	kIdx := JoinSchema.MustIndex("k")
	idIdx := JoinSchema.MustIndex("id")
	// A and B fragments i contain only keys = i (mod d).
	for i, frag := range db.A.Fragments {
		for _, tup := range frag {
			if tup[kIdx].AsInt()%10 != int64(i) {
				t.Fatalf("A fragment %d holds key %d", i, tup[kIdx].AsInt())
			}
		}
	}
	for i, frag := range db.B.Fragments {
		for _, tup := range frag {
			if tup[kIdx].AsInt()%10 != int64(i) {
				t.Fatalf("B fragment %d holds key %d", i, tup[kIdx].AsInt())
			}
		}
	}
	// Br fragments hold ids = i (mod d), and Br is the same multiset as B.
	for i, frag := range db.Br.Fragments {
		for _, tup := range frag {
			if tup[idIdx].AsInt()%10 != int64(i) {
				t.Fatalf("Br fragment %d holds id %d", i, tup[idIdx].AsInt())
			}
		}
	}
	if !db.B.Union().EqualMultiset(db.Br.Union()) {
		t.Error("B and Br differ as multisets")
	}
	// Every A key exists in B (guarantees the join-count oracle).
	bKeys := make(map[int64]bool)
	for _, frag := range db.B.Fragments {
		for _, tup := range frag {
			bKeys[tup[kIdx].AsInt()] = true
		}
	}
	for _, frag := range db.A.Fragments {
		for _, tup := range frag {
			if !bKeys[tup[kIdx].AsInt()] {
				t.Fatalf("A key %d has no B match", tup[kIdx].AsInt())
			}
		}
	}
}

func TestJoinDBPlansBind(t *testing.T) {
	db, err := NewJoinDB(500, 100, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []lera.JoinAlgo{lera.NestedLoop, lera.HashJoin, lera.TempIndex} {
		if _, err := db.IdealJoinPlan(algo); err != nil {
			t.Errorf("IdealJoinPlan(%v): %v", algo, err)
		}
		if _, err := db.AssocJoinPlan(algo); err != nil {
			t.Errorf("AssocJoinPlan(%v): %v", algo, err)
		}
	}
}

func TestRelationsMap(t *testing.T) {
	db, err := NewJoinDB(100, 20, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	rels := db.Relations()
	if len(rels) != 3 || rels["A"] == nil || rels["B"] == nil || rels["Br"] == nil {
		t.Fatalf("Relations = %v", rels)
	}
	if db.ExpectedJoinCount() != 100 {
		t.Errorf("ExpectedJoinCount = %d", db.ExpectedJoinCount())
	}
}

func TestVerifyJoinResultDetectsErrors(t *testing.T) {
	db, err := NewJoinDB(100, 20, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	schema := JoinSchema.Concat(JoinSchema, "A.", "B.")
	mk := func(ak, aid, bk int64) relation.Tuple {
		return relation.NewTuple(
			relation.Int(ak), relation.Int(aid), relation.Str("a"),
			relation.Int(bk), relation.Int(0), relation.Str("b"),
		)
	}
	build := func(tuples ...relation.Tuple) *partition.Partitioned {
		p, err := partition.FromFragments("Res", schema, nil, [][]relation.Tuple{tuples}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Wrong cardinality.
	if err := db.VerifyJoinResult(build(mk(1, 1, 1))); err == nil {
		t.Error("wrong cardinality accepted")
	}
	// Right cardinality, mismatched keys.
	bad := make([]relation.Tuple, 100)
	for i := range bad {
		bad[i] = mk(int64(i), int64(i), int64(i+1))
	}
	if err := db.VerifyJoinResult(build(bad...)); err == nil {
		t.Error("mismatched keys accepted")
	}
	// Duplicate A ids.
	dup := make([]relation.Tuple, 100)
	for i := range dup {
		dup[i] = mk(5, 7, 5)
	}
	if err := db.VerifyJoinResult(build(dup...)); err == nil {
		t.Error("duplicate ids accepted")
	}
	// A correct result passes (constructed from the data itself).
	good := make([]relation.Tuple, 0, 100)
	kIdx, idIdx := JoinSchema.MustIndex("k"), JoinSchema.MustIndex("id")
	_ = idIdx
	bByKey := map[int64]relation.Tuple{}
	for _, frag := range db.B.Fragments {
		for _, tup := range frag {
			bByKey[tup[kIdx].AsInt()] = tup
		}
	}
	for _, frag := range db.A.Fragments {
		for _, a := range frag {
			good = append(good, append(a[:len(a):len(a)], bByKey[a[kIdx].AsInt()]...))
		}
	}
	if err := db.VerifyJoinResult(build(good...)); err != nil {
		t.Errorf("correct result rejected: %v", err)
	}
}

var _ = lera.NestedLoop

// TestJoinDBRegionsCheck: A's region and the one B and Br share hold no
// pointer out of themselves — the pads are copied in, and Br's headers
// address B's values.
func TestJoinDBRegionsCheck(t *testing.T) {
	db, err := NewJoinDB(5_000, 640, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if db.B.Region != db.Br.Region || db.A.Region == db.B.Region {
		t.Fatal("B and Br do not share one region, or A does not have its own")
	}
	regions := []*relation.Region{db.B.Region, db.A.Region}
	for i, r := range regions {
		if err := r.Check(); err != nil {
			t.Errorf("region %d: %v", i, err)
		}
	}
	if got := len(regions[0].Tuples()); got != 2*db.BCard {
		t.Errorf("B's region holds %d headers, want one per B and one per Br tuple (%d)", got, 2*db.BCard)
	}
	// Br is B's very tuples: same values, not copies.
	byID := make(map[int64]*relation.Value, db.BCard)
	for _, frag := range db.B.Fragments {
		for _, tup := range frag {
			byID[tup[1].AsInt()] = &tup[0]
		}
	}
	for _, frag := range db.Br.Fragments {
		for _, tup := range frag {
			if byID[tup[1].AsInt()] != &tup[0] {
				t.Fatalf("Br tuple %v does not share B's values", tup)
			}
		}
	}
}

// TestNewJoinDBRows: the join pair row by row. Fragment f's j-th tuple of A
// and of B is (f + (j mod BCard/D)·D, the relation's running id, its pad),
// so A's keys start over every BCard/D rows of a fragment; Br's fragment f
// holds B's tuples with ids f, f+D, f+2D, ….
func TestNewJoinDBRows(t *testing.T) {
	for _, theta := range []float64{0, 1} {
		db, err := NewJoinDB(5_000, 640, 64, theta)
		if err != nil {
			t.Fatal(err)
		}
		cycle := db.BCard / db.D
		for _, rel := range []struct {
			p    *partition.Partitioned
			pad  string
			card int
		}{{db.A, "a", db.ACard}, {db.B, "b", db.BCard}} {
			id := 0
			for f, frag := range rel.p.Fragments {
				for j, tup := range frag {
					want := relation.Tuple{relation.Int(int64(f + j%cycle*db.D)), relation.Int(int64(id)), relation.Str(rel.pad)}
					if !tup.Equal(want) {
						t.Fatalf("θ %v: %s fragment %d tuple %d = %v, want %v", theta, rel.p.Name, f, j, tup, want)
					}
					id++
				}
			}
			if id != rel.card {
				t.Errorf("θ %v: %s holds %d tuples, want %d", theta, rel.p.Name, id, rel.card)
			}
		}
		for f, frag := range db.Br.Fragments {
			for j, tup := range frag {
				if got, want := tup[1].AsInt(), int64(f+j*db.D); got != want {
					t.Fatalf("θ %v: Br fragment %d tuple %d has id %d, want %d", theta, f, j, got, want)
				}
			}
		}
	}
}

// TestNewJoinDBAllocatesPerRelation: three relations filled in place in two
// regions their fragments are cut from — the allocations do not grow with the
// cardinalities.
func TestNewJoinDBAllocatesPerRelation(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	for _, size := range [][2]int{{10_000, 1_024}, {100_000, 10_240}} {
		got := race.AllocsPerRun(3, func() {
			if _, err := NewJoinDB(size[0], size[1], 64, 1); err != nil {
				t.Fatal(err)
			}
		})
		if got > 28 {
			t.Errorf("NewJoinDB(%d, %d, 64): %v allocations, want at most 28", size[0], size[1], got)
		}
	}
}

// BenchmarkNewJoinDB is engine-skew's set-up, one of its two databases: the
// paper's §5.4 join pair at A = 100 000, B = 10 240, degree 64, θ = 1.
func BenchmarkNewJoinDB(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		if _, err := NewJoinDB(100_000, 10_240, 64, 1); err != nil {
			b.Fatal(err)
		}
	}
}
