package partition

import (
	"strings"
	"testing"
	"testing/quick"

	"dbs3/internal/relation"
)

func intRel(t *testing.T, name string, keys ...int64) *relation.Relation {
	t.Helper()
	s := relation.MustSchema(relation.Column{Name: "k", Type: relation.TInt}, relation.Column{Name: "pay", Type: relation.TString})
	r := relation.New(name, s)
	for _, k := range keys {
		r.Tuples = append(r.Tuples, relation.NewTuple(relation.Int(k), relation.Str("p")))
	}
	return r
}

func TestNewHashValidation(t *testing.T) {
	r := intRel(t, "r", 1)
	if _, err := NewHash(r.Schema, []string{"k"}, 0); err == nil {
		t.Error("degree 0 accepted")
	}
	if _, err := NewHash(r.Schema, nil, 4); err == nil {
		t.Error("empty key accepted")
	}
	if _, err := NewHash(r.Schema, []string{"absent"}, 4); err == nil {
		t.Error("unknown key accepted")
	}
}

func TestHashCoLocatesEqualKeys(t *testing.T) {
	r := intRel(t, "r", 1, 1, 2, 2, 3, 3)
	h, err := NewHash(r.Schema, []string{"k"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	dest := h.FragmentsOfCols(r.Tuples, []int{0}, nil)
	for i := 0; i < len(r.Tuples); i += 2 {
		if dest[i] != dest[i+1] {
			t.Fatalf("equal keys landed in different fragments")
		}
	}
	if got := h.Degree(); got != 4 {
		t.Errorf("Degree = %d", got)
	}
	if k := h.Key(); len(k) != 1 || k[0] != "k" {
		t.Errorf("Key = %v", k)
	}
}

func TestModPartitioner(t *testing.T) {
	r := intRel(t, "r", 0, 1, 2, 3, 4, -1)
	m, err := NewMod(r.Schema, "k", 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 1, 2, 0, 1, 2} // -1 mod 3 must be non-negative 2
	for i, got := range m.FragmentsOfCols(r.Tuples, []int{0}, nil) {
		if got != want[i] {
			t.Errorf("fragment of k=%v is %d, want %d", r.Tuples[i][0], got, want[i])
		}
	}
}

func TestNewModValidation(t *testing.T) {
	s := relation.MustSchema(relation.Column{Name: "s", Type: relation.TString})
	if _, err := NewMod(s, "s", 3); err == nil {
		t.Error("string column accepted for modulo partitioning")
	}
	if _, err := NewMod(s, "absent", 3); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := NewMod(relation.WisconsinSchema, "unique2", 0); err == nil {
		t.Error("degree 0 accepted")
	}
}

func TestPartitionLossless(t *testing.T) {
	r := relation.Wisconsin("A", 2000, 3)
	h, err := NewHash(r.Schema, []string{"unique2"}, 16)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Partition(r, h, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cardinality() != 2000 || p.Degree() != 16 {
		t.Fatalf("cardinality=%d degree=%d", p.Cardinality(), p.Degree())
	}
	if !p.Union().EqualMultiset(r) {
		t.Error("partition/union must preserve the tuple multiset")
	}
}

// countingFunc places the i-th tuple of a run in fragment i mod degree, so
// its placement shows in what order Partition handed the tuples over, and it
// records each call's run length and key columns.
type countingFunc struct {
	degree int
	runs   []int
	cols   [][]int
}

func (c *countingFunc) Degree() int       { return c.degree }
func (c *countingFunc) Key() []string     { return []string{"unique2"} }
func (c *countingFunc) Signature() string { return "counting" }

func (c *countingFunc) FragmentsOfCols(ts []relation.Tuple, cols []int, dst []int32) []int32 {
	c.runs = append(c.runs, len(ts))
	c.cols = append(c.cols, cols)
	for i := range ts {
		dst = append(dst, int32(i%c.degree))
	}
	return dst
}

// TestPartitionCallsFuncOncePerTuple: the two-pass partition asks the
// function about every tuple in one FragmentsOfCols call, in relation order
// and at the position of its key column — tuple i lands in fragment i mod d —
// and its fragments are exactly sized and capped, so growing one never
// overwrites the next.
func TestPartitionCallsFuncOncePerTuple(t *testing.T) {
	r := relation.Wisconsin("A", 103, 3)
	f := &countingFunc{degree: 4}
	p, err := Partition(r, f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.runs) != 1 || f.runs[0] != len(r.Tuples) {
		t.Fatalf("FragmentsOfCols called with runs %v for %d tuples, want one run of all", f.runs, len(r.Tuples))
	}
	if key := r.Schema.MustIndex("unique2"); len(f.cols[0]) != 1 || f.cols[0][0] != key {
		t.Fatalf("routed at columns %v, want [%d]", f.cols[0], key)
	}
	for i, tup := range r.Tuples {
		if got := p.Fragments[i%4][i/4]; !got.Equal(tup) {
			t.Fatalf("tuple %d is not at fragment %d position %d", i, i%4, i/4)
		}
	}
	for i, frag := range p.Fragments {
		if cap(frag) != len(frag) {
			t.Errorf("fragment %d: len %d cap %d, want exactly sized", i, len(frag), cap(frag))
		}
	}
	first := p.Fragments[1][0]
	_ = append(p.Fragments[0], relation.Tuple{relation.Int(-1)})
	if !p.Fragments[1][0].Equal(first) {
		t.Error("append on fragment 0 wrote into fragment 1")
	}
}

// TestGenerateEqualsPartition: generating a relation fragment by fragment
// from a row source builds the very fragments Partition builds from the
// materialized relation — same tuples, same order, exactly sized — for hash
// placement on an integer and on a string attribute, and for modulo.
func TestGenerateEqualsPartition(t *testing.T) {
	const n, seed = 1000, 5
	r := relation.Wisconsin("A", n, seed)
	hashInt, _ := NewHash(r.Schema, []string{"unique1"}, 7)
	hashStr, _ := NewHash(r.Schema, []string{"stringu1"}, 5)
	mod, _ := NewMod(r.Schema, "unique2", 8)
	for _, f := range []Func{hashInt, hashStr, mod} {
		want, err := Partition(r, f, 3)
		if err != nil {
			t.Fatal(err)
		}
		rows := relation.NewWisconsinRows(n, seed)
		col := r.Schema.MustIndex(f.Key()[0])
		got, err := Generate("A", r.Schema, f, n, n*relation.WisconsinRowStringBytes,
			func(i int) relation.Value { return rows.Value(col, i) }, rows.Row)
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != want.Name || got.Degree() != want.Degree() || len(got.Key) != 1 || got.Key[0] != want.Key[0] {
			t.Fatalf("%s: generated %v, partitioned %v", f.Signature(), got, want)
		}
		for i, frag := range want.Fragments {
			if len(got.Fragments[i]) != len(frag) || cap(got.Fragments[i]) != len(frag) {
				t.Fatalf("%s fragment %d: %d tuples (cap %d), want %d", f.Signature(), i,
					len(got.Fragments[i]), cap(got.Fragments[i]), len(frag))
			}
			for j, tup := range frag {
				if !got.Fragments[i][j].Equal(tup) {
					t.Fatalf("%s fragment %d position %d: %v, want %v", f.Signature(), i, j, got.Fragments[i][j], tup)
				}
			}
		}
	}
}

// TestGenerateRegionChecks: what Generate fills, and what Partition copies a
// CSV import into, holds no pointer out of itself, whichever attribute places
// the rows.
func TestGenerateRegionChecks(t *testing.T) {
	const n, seed = 1000, 5
	schema := relation.WisconsinSchema
	hashStr, _ := NewHash(schema, []string{"stringu1"}, 5)
	mod, _ := NewMod(schema, "unique2", 8)
	var dump strings.Builder
	if err := relation.Wisconsin("A", n, seed).WriteCSV(&dump); err != nil {
		t.Fatal(err)
	}
	imported, err := relation.ReadCSV("A", strings.NewReader(dump.String()))
	if err != nil {
		t.Fatal(err)
	}
	type load func() (*Partitioned, *relation.Region, error)
	generated := func(f Func) load {
		return func() (*Partitioned, *relation.Region, error) {
			rows := relation.NewWisconsinRows(n, seed)
			col := schema.MustIndex(f.Key()[0])
			return generate("A", schema, f, n, n*relation.WisconsinRowStringBytes,
				func(i int) relation.Value { return rows.Value(col, i) }, rows.Row)
		}
	}
	for name, l := range map[string]load{
		"Generate on stringu1":      generated(hashStr),
		"Generate on unique2":       generated(mod),
		"Partition of a CSV import": func() (*Partitioned, *relation.Region, error) { return partition(imported, hashStr) },
	} {
		p, region, err := l()
		if err != nil {
			t.Fatal(err)
		}
		if err := region.Check(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if got := len(region.Tuples()); got != n || p.Cardinality() != n {
			t.Errorf("%s: region holds %d tuples, fragments %d, want %d", name, got, p.Cardinality(), n)
		}
	}
}

func TestHashReasonablyBalancedOnUniqueKey(t *testing.T) {
	r := relation.Wisconsin("A", 10000, 5)
	h, _ := NewHash(r.Schema, []string{"unique2"}, 20)
	p, err := Partition(r, h, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, sz := range p.FragmentSizes() {
		if sz < 300 || sz > 700 { // mean 500; allow wide tolerance
			t.Errorf("fragment %d badly unbalanced: %d tuples", i, sz)
		}
	}
}

func TestFromFragments(t *testing.T) {
	s := relation.MustSchema(relation.Column{Name: "k", Type: relation.TInt})
	frags := [][]relation.Tuple{
		{relation.NewTuple(relation.Int(0))},
		{relation.NewTuple(relation.Int(1)), relation.NewTuple(relation.Int(3))},
	}
	p, err := FromFragments("f", s, []string{"k"}, frags, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cardinality() != 3 || p.Degree() != 2 {
		t.Fatalf("cardinality=%d degree=%d", p.Cardinality(), p.Degree())
	}
	sizes := p.FragmentSizes()
	if sizes[0] != 1 || sizes[1] != 2 {
		t.Errorf("sizes = %v", sizes)
	}
	if _, err := FromFragments("f", s, nil, nil, 1); err == nil {
		t.Error("empty fragments accepted")
	}
}

// Property: hash partitioning preserves cardinality and never emits an
// out-of-range fragment, for any degree and key set.
func TestPartitionCardinalityProperty(t *testing.T) {
	f := func(nRaw uint8, dRaw uint8, seed int64) bool {
		n := int(nRaw)%200 + 1
		d := int(dRaw)%32 + 1
		r := relation.Wisconsin("A", n, seed)
		h, err := NewHash(r.Schema, []string{"unique1"}, d)
		if err != nil {
			return false
		}
		p, err := Partition(r, h, 2)
		if err != nil {
			return false
		}
		return p.Cardinality() == n && p.Union().EqualMultiset(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPartitionedString(t *testing.T) {
	r := intRel(t, "r", 1, 2)
	m, _ := NewMod(r.Schema, "k", 2)
	p, _ := Partition(r, m, 1)
	if p.String() == "" {
		t.Error("empty String()")
	}
}

// TestFragmentsOfColsPlacesByKey: each function places a run by its key at
// the given columns — hash as HashOn modulo the degree, on one and on two key
// columns; modulo as the non-negative remainder at a power-of-two degree (the
// mask path) and at another (the divide path), over negative keys too —
// appending after what dst already holds, and without allocating once dst is
// large enough.
func TestFragmentsOfColsPlacesByKey(t *testing.T) {
	wisc := relation.Wisconsin("A", 500, 3)
	keys := make([]int64, 0, 600)
	for k := int64(-300); k < 300; k++ {
		keys = append(keys, k)
	}
	signed := intRel(t, "s", keys...)
	hash1, _ := NewHash(wisc.Schema, []string{"unique2"}, 32)
	hash2, _ := NewHash(wisc.Schema, []string{"ten", "stringu1"}, 13)
	mod8, _ := NewMod(signed.Schema, "k", 8)
	mod7, _ := NewMod(signed.Schema, "k", 7)
	for _, c := range []struct {
		f Func
		r *relation.Relation
	}{{hash1, wisc}, {hash2, wisc}, {mod8, signed}, {mod7, signed}} {
		cols := make([]int, len(c.f.Key()))
		for i, name := range c.f.Key() {
			cols[i] = c.r.Schema.MustIndex(name)
		}
		dst := c.f.FragmentsOfCols(c.r.Tuples, cols, []int32{-1})
		if len(dst) != 1+len(c.r.Tuples) || dst[0] != -1 {
			t.Fatalf("%s: FragmentsOfCols returned %d destinations (first %d) for %d tuples after one held", c.f.Signature(), len(dst), dst[0], len(c.r.Tuples))
		}
		d := int64(c.f.Degree())
		for i, tup := range c.r.Tuples {
			var want int64
			if _, ok := c.f.(*Hash); ok {
				want = int64(tup.HashOn(cols) % uint64(d))
			} else {
				want = (tup[cols[0]].AsInt()%d + d) % d
			}
			if got := int64(dst[1+i]); got != want {
				t.Fatalf("%s %v: fragment %d, want %d", c.f.Signature(), tup, got, want)
			}
		}
		if n := testing.AllocsPerRun(100, func() { dst = c.f.FragmentsOfCols(c.r.Tuples, cols, dst[:0]) }); n != 0 {
			t.Errorf("%s: FragmentsOfCols into a large enough dst allocates %v times per run, want 0", c.f.Signature(), n)
		}
	}
}

func TestSignatures(t *testing.T) {
	r := relation.Wisconsin("A", 10, 3)
	h, _ := NewHash(r.Schema, []string{"unique2"}, 7)
	m, _ := NewMod(r.Schema, "unique2", 7)
	if h.Signature() != "hash/7" || m.Signature() != "mod/7" {
		t.Errorf("signatures = %q %q", h.Signature(), m.Signature())
	}
	if h.Signature() == m.Signature() {
		t.Error("hash and mod must not share a signature")
	}
}

func TestModFragmentsOfColsArity(t *testing.T) {
	r := relation.Wisconsin("A", 10, 3)
	m, _ := NewMod(r.Schema, "unique2", 7)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong key arity")
		}
	}()
	m.FragmentsOfCols(r.Tuples, []int{0, 1}, nil)
}
