// Package workload generates the paper's experimental databases and plans
// (§5.3-5.4): pairs of relations A and B partitioned in d fragments where
// A's fragment cardinalities follow a Zipf distribution (tuple placement
// skew) and B is uniform, plus the two Lera-par plans the experiments run —
// IdealJoin (both operands co-partitioned on the join attribute, triggered)
// and AssocJoin (B dynamically repartitioned into a pipelined join).
package workload

import (
	"fmt"
	"math"

	"dbs3/internal/lera"
	"dbs3/internal/partition"
	"dbs3/internal/relation"
	"dbs3/internal/zipf"
)

// JoinSchema is the schema of the generated join relations: the join key k,
// a globally unique id, and a payload string.
var JoinSchema = relation.MustSchema(
	relation.Column{Name: "k", Type: relation.TInt},
	relation.Column{Name: "id", Type: relation.TInt},
	relation.Column{Name: "pad", Type: relation.TString},
)

// JoinDB is one experimental database: relation A of ACard tuples with
// Zipf(Theta) fragment sizes, and relation B of BCard tuples, uniform. B
// exists in two placements: "B" partitioned on the join key k (IdealJoin
// needs co-partitioning) and "Br" partitioned on id (AssocJoin repartitions
// it at run time). Both placements hold the same tuple multiset. Every A
// tuple matches exactly one B tuple, so any correct join returns exactly
// ACard tuples — the correctness oracle used by tests.
type JoinDB struct {
	ACard, BCard int
	D            int
	Theta        float64

	A, B, Br *partition.Partitioned
	// AKeyPart is the shared partitioning function on k (modulo D).
	AKeyPart *partition.Mod
}

// CheckJoinDB returns the error NewJoinDB returns for these arguments, or
// nil: BCard must be a multiple of D so that every fragment of B holds the
// same number of keys (the paper's unskewed operand), both cardinalities and
// the degree positive, both cardinalities at most math.MaxInt32 (the
// generators keep keys and ids as int32s), and the skew factor non-negative;
// ACard is otherwise free.
func CheckJoinDB(aCard, bCard, d int, theta float64) error {
	if d <= 0 {
		return fmt.Errorf("workload: degree must be positive, got %d", d)
	}
	if bCard%d != 0 {
		return fmt.Errorf("workload: BCard %d must be a multiple of the degree %d", bCard, d)
	}
	if bCard <= 0 || aCard <= 0 {
		return fmt.Errorf("workload: cardinalities must be positive")
	}
	if aCard > math.MaxInt32 || bCard > math.MaxInt32 {
		return fmt.Errorf("workload: cardinalities must be at most %d, got %d and %d", math.MaxInt32, aCard, bCard)
	}
	if !(theta >= 0) {
		return fmt.Errorf("workload: skew factor must be non-negative, got %v", theta)
	}
	return nil
}

// The pads of A's and of B's rows: one constant per relation, copied into
// its region once.
const padA, padB = "a", "b"

// JoinPairRows returns the rows of A and of B as data, for arguments
// CheckJoinDB accepts. B's fragment i holds the keys {i + j·d : j in
// [0, BCard/d)}, each once. A's fragment i holds Zipf(theta)'s share of
// ACard rows whose keys cycle over fragment i's B keys, so each A row
// matches exactly one B row and lands in fragment i under k mod d (tuple
// placement skew via cardinality). Br is B's rows placed by id mod d.
func JoinPairRows(aCard, bCard, d int, theta float64) (a, b relation.JoinRows) {
	bPerFrag := bCard / d
	uniform := make([]int, d)
	for i := range uniform {
		uniform[i] = bPerFrag
	}
	a = relation.JoinRows{Sizes: zipf.Sizes(aCard, d, theta), Cycle: bPerFrag, Stride: d, Pad: padA}
	b = relation.JoinRows{Sizes: uniform, Cycle: bPerFrag, Stride: d, Pad: padB}
	return a, b
}

// fillB generates B's rows, fragment by fragment, into a region with room
// for every row's header twice, and then Br's headers: the same rows placed
// by id (id mod d), i.e. NOT on the join key. B's rows are the region's
// first BCard tuples and Br's the rest. The ids are 0..BCard-1 in B's order
// and d divides BCard, so Br's fragment f holds B's rows f, f+d, f+2d, … —
// BCard/d of them, as many as B's fragment f.
func fillB(b relation.JoinRows) *relation.Region {
	d := len(b.Sizes)
	n := d * b.Sizes[0]
	r := relation.NewRegion(2*n, n*JoinSchema.Len(), len(b.Pad))
	rows := b.Fill(r)
	for f := 0; f < d; f++ {
		for id := f; id < n; id += d {
			r.Alias(rows[id])
		}
	}
	return r
}

// member returns the fragments of the pair's member i — 0 for A, 1 for B,
// 2 for Br — cut from the region its rows were generated into: A's own, cut
// by A's rows, and fillB's for B and Br, cut by B's: B's rows are the
// region's first half and Br's headers the second.
func member(i int, region *relation.Region, rows relation.JoinRows) [][]relation.Tuple {
	tuples := region.Tuples()
	if i == 2 {
		tuples = tuples[len(tuples)/2:]
	}
	return partition.Cut(tuples, rows.Sizes)
}

// NewJoinDB generates a database from arguments CheckJoinDB accepts — A as
// the one shard of one of its rows, B and Br by fillB — and cuts each
// relation out by member. Each relation carries the region its fragments are
// cut from: B and Br share one, A has its own.
func NewJoinDB(aCard, bCard, d int, theta float64) (*JoinDB, error) {
	if err := CheckJoinDB(aCard, bCard, d, theta); err != nil {
		return nil, err
	}
	db := &JoinDB{ACard: aCard, BCard: bCard, D: d, Theta: theta}
	modK, err := partition.NewMod(JoinSchema, "k", d)
	if err != nil {
		return nil, err
	}
	db.AKeyPart = modK

	aRows, bRows := JoinPairRows(aCard, bCard, d, theta)
	rb := fillB(bRows)
	db.B, err = partition.FromFragments("B", JoinSchema, []string{"k"}, member(1, rb, bRows), 1)
	if err != nil {
		return nil, err
	}
	db.Br, err = partition.FromFragments("Br", JoinSchema, []string{"id"}, member(2, rb, bRows), 1)
	if err != nil {
		return nil, err
	}
	db.B.Region, db.Br.Region = rb, rb

	ra, _ := aRows.Shard(0, nil, false)
	db.A, err = partition.FromFragments("A", JoinSchema, []string{"k"}, member(0, ra, aRows), 1)
	if err != nil {
		return nil, err
	}
	db.A.Region = ra
	return db, nil
}

// Resolver returns plan-binding metadata for the database.
func (db *JoinDB) Resolver() lera.MapResolver {
	modID, _ := partition.NewMod(JoinSchema, "id", db.D)
	return lera.MapResolver{
		"A":  {Schema: JoinSchema, Degree: db.D, FragSizes: db.A.FragmentSizes(), Part: db.AKeyPart},
		"B":  {Schema: JoinSchema, Degree: db.D, FragSizes: db.B.FragmentSizes(), Part: db.AKeyPart},
		"Br": {Schema: JoinSchema, Degree: db.D, FragSizes: db.Br.FragmentSizes(), Part: modID},
	}
}

// Relations returns the name->partitioned map the engine consumes.
func (db *JoinDB) Relations() map[string]*partition.Partitioned {
	return map[string]*partition.Partitioned{"A": db.A, "B": db.B, "Br": db.Br}
}

// IdealJoinGraph builds the paper's IdealJoin plan (Figure 10): a triggered
// join of the co-partitioned A and B, materialized as Res.
func IdealJoinGraph(algo lera.JoinAlgo) *lera.Graph {
	g := lera.NewGraph()
	j := g.JoinBound("join", "A", "B", []string{"k"}, []string{"k"}, algo)
	st := g.Store("store", "Res")
	g.ConnectSame(j, st)
	return g
}

// AssocJoinGraph builds the paper's AssocJoin plan (Figure 11): transmit
// reads Br (placed on id) and redistributes its tuples on k into a pipelined
// join against A, materialized as Res.
func AssocJoinGraph(algo lera.JoinAlgo) *lera.Graph {
	g := lera.NewGraph()
	tr := g.Transmit("transmit", "Br")
	j := g.JoinPipelined("join", "A", []string{"k"}, []string{"k"}, algo)
	st := g.Store("store", "Res")
	g.ConnectHash(tr, j, []string{"k"})
	g.ConnectSame(j, st)
	return g
}

// IdealJoinPlan binds the IdealJoin plan against the database.
func (db *JoinDB) IdealJoinPlan(algo lera.JoinAlgo) (*lera.Plan, error) {
	return lera.Bind(IdealJoinGraph(algo), db.Resolver())
}

// AssocJoinPlan binds the AssocJoin plan against the database.
func (db *JoinDB) AssocJoinPlan(algo lera.JoinAlgo) (*lera.Plan, error) {
	return lera.Bind(AssocJoinGraph(algo), db.Resolver())
}

// ExpectedJoinCount is the join result cardinality oracle: every A tuple
// matches exactly one B tuple.
func (db *JoinDB) ExpectedJoinCount() int { return db.ACard }

// VerifyJoinResult checks a materialized join result against the oracle:
// cardinality, key equality on both sides, and the multiset of A-side ids
// (each A id appears exactly once).
func (db *JoinDB) VerifyJoinResult(res *partition.Partitioned) error {
	if res.Cardinality() != db.ExpectedJoinCount() {
		return fmt.Errorf("workload: join produced %d tuples, want %d", res.Cardinality(), db.ExpectedJoinCount())
	}
	schema := res.Schema
	ak := schema.MustIndex("A.k")
	aid := schema.MustIndex("A.id")
	var bk int
	if i, ok := schema.Index("B.k"); ok {
		bk = i
	} else {
		bk = schema.MustIndex("probe.k")
	}
	seen := make(map[int64]bool, db.ACard)
	for _, frag := range res.Fragments {
		for _, t := range frag {
			if t[ak].AsInt() != t[bk].AsInt() {
				return fmt.Errorf("workload: joined tuple %v has mismatched keys", t)
			}
			id := t[aid].AsInt()
			if seen[id] {
				return fmt.Errorf("workload: A id %d joined twice", id)
			}
			seen[id] = true
		}
	}
	return nil
}
