// Package workload generates the paper's experimental databases and plans
// (§5.3-5.4): pairs of relations A and B partitioned in d fragments where
// A's fragment cardinalities follow a Zipf distribution (tuple placement
// skew) and B is uniform, plus the two Lera-par plans the experiments run —
// IdealJoin (both operands co-partitioned on the join attribute, triggered)
// and AssocJoin (B dynamically repartitioned into a pipelined join).
package workload

import (
	"fmt"

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

// NewJoinDB generates a database. BCard must be a multiple of D so that
// every fragment of B holds the same number of keys (the paper's unskewed
// operand); ACard is free.
func NewJoinDB(aCard, bCard, d int, theta float64) (*JoinDB, error) {
	db, _, err := newJoinDB(aCard, bCard, d, theta)
	return db, err
}

// newJoinDB is NewJoinDB; it also returns the two regions the relations live
// in (B and Br share the first, A has the second), for tests to Check.
func newJoinDB(aCard, bCard, d int, theta float64) (*JoinDB, []*relation.Region, error) {
	if d <= 0 {
		return nil, nil, fmt.Errorf("workload: degree must be positive, got %d", d)
	}
	if bCard%d != 0 {
		return nil, nil, fmt.Errorf("workload: BCard %d must be a multiple of the degree %d", bCard, d)
	}
	if bCard <= 0 || aCard <= 0 {
		return nil, nil, fmt.Errorf("workload: cardinalities must be positive")
	}
	bPerFrag := bCard / d

	db := &JoinDB{ACard: aCard, BCard: bCard, D: d, Theta: theta}

	modK, err := partition.NewMod(JoinSchema, "k", d)
	if err != nil {
		return nil, nil, err
	}
	db.AKeyPart = modK

	// Each relation is filled fragment by fragment into one region its
	// fragments are then cut from; the pad is one constant per relation,
	// copied into the region once.
	const padA, padB = "a", "b"
	row := func(region *relation.Region, k, id int64, pad string) {
		region.Begin(JoinSchema.Len())
		region.Int(k)
		region.Int(id)
		region.Shared(pad)
	}
	uniform := make([]int, d)
	for i := range uniform {
		uniform[i] = bPerFrag
	}

	// B partitioned on k: fragment i holds keys {i + j*d : j in [0,bPerFrag)}.
	// Its region has room for every tuple's header twice: Br is B's tuples
	// under a second header each.
	rb := relation.NewRegion(2*bCard, bCard*JoinSchema.Len(), len(padB))
	id := int64(0)
	for i := 0; i < d; i++ {
		for j := 0; j < bPerFrag; j++ {
			row(rb, int64(i+j*d), id, padB)
			id++
		}
	}
	// Br: the same tuples placed by id (id mod d), i.e. NOT on the join key.
	// ids are 0..bCard-1 in B's order and d divides bCard, so Br's fragment
	// f holds B's tuples f, f+d, f+2d, ... — exactly bPerFrag of them.
	b := rb.Tuples()
	for f := 0; f < d; f++ {
		for j := 0; j < bPerFrag; j++ {
			rb.Alias(b[f+j*d])
		}
	}
	both := rb.Tuples()
	db.B, err = partition.FromFragments("B", JoinSchema, []string{"k"}, partition.Cut(both[:bCard], uniform), 1)
	if err != nil {
		return nil, nil, err
	}
	db.Br, err = partition.FromFragments("Br", JoinSchema, []string{"id"}, partition.Cut(both[bCard:], uniform), 1)
	if err != nil {
		return nil, nil, err
	}

	// A: fragment i holds sizes[i] tuples whose keys cycle over fragment
	// i's B keys, so each A tuple matches exactly one B tuple and lands in
	// fragment i under k mod d (tuple placement skew via cardinality).
	sizes := zipf.Sizes(aCard, d, theta)
	ra := relation.NewRegion(aCard, aCard*JoinSchema.Len(), len(padA))
	aid := int64(0)
	for i := 0; i < d; i++ {
		for j := 0; j < sizes[i]; j++ {
			row(ra, int64(i+(j%bPerFrag)*d), aid, padA)
			aid++
		}
	}
	db.A, err = partition.FromFragments("A", JoinSchema, []string{"k"}, partition.Cut(ra.Tuples(), sizes), 1)
	if err != nil {
		return nil, nil, err
	}
	return db, []*relation.Region{rb, ra}, nil
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
