package partition

import (
	"testing"
	"testing/quick"

	"dbs3/internal/relation"
)

func intRel(t *testing.T, name string, keys ...int64) *relation.Relation {
	t.Helper()
	s := relation.MustSchema(relation.Column{Name: "k", Type: relation.TInt}, relation.Column{Name: "pay", Type: relation.TString})
	r := relation.New(name, s)
	for _, k := range keys {
		r.MustAppend(relation.NewTuple(relation.Int(k), relation.Str("p")))
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
	for i := 0; i < len(r.Tuples); i += 2 {
		if h.FragmentOf(r.Tuples[i]) != h.FragmentOf(r.Tuples[i+1]) {
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
	want := []int{0, 1, 2, 0, 1, 2} // -1 mod 3 must be non-negative 2
	for i, tup := range r.Tuples {
		if got := m.FragmentOf(tup); got != want[i] {
			t.Errorf("FragmentOf(k=%v) = %d, want %d", tup[0], got, want[i])
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

func TestRoundRobinCycles(t *testing.T) {
	rr, err := NewRoundRobin(3)
	if err != nil {
		t.Fatal(err)
	}
	got := []int{rr.FragmentOf(nil), rr.FragmentOf(nil), rr.FragmentOf(nil), rr.FragmentOf(nil)}
	want := []int{0, 1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round robin sequence = %v, want %v", got, want)
		}
	}
	if rr.Key() != nil {
		t.Error("round robin should have no key")
	}
	if _, err := NewRoundRobin(0); err == nil {
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

// countingFunc wraps a Func and records how often FragmentOf was asked.
type countingFunc struct {
	Func
	calls int
}

func (c *countingFunc) FragmentOf(t relation.Tuple) int {
	c.calls++
	return c.Func.FragmentOf(t)
}

// TestPartitionCallsFuncOncePerTuple: the two-pass partition must not ask a
// stateful function twice — round-robin placement is tuple i -> fragment
// i mod d, in relation order — and its fragments are exactly sized and
// capped, so growing one never overwrites the next.
func TestPartitionCallsFuncOncePerTuple(t *testing.T) {
	r := relation.Wisconsin("A", 103, 3)
	rr, _ := NewRoundRobin(4)
	f := &countingFunc{Func: rr}
	p, err := Partition(r, f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f.calls != len(r.Tuples) {
		t.Fatalf("FragmentOf called %d times for %d tuples", f.calls, len(r.Tuples))
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
		got, err := Generate("A", r.Schema, f, 3, n, n*relation.WisconsinRowStringBytes,
			func(i int) relation.Value { return rows.Value(col, i) }, rows.Row)
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != want.Name || got.Degree() != want.Degree() || len(got.Key) != 1 || got.Key[0] != want.Key[0] {
			t.Fatalf("%s: generated %v, partitioned %v", f.Signature(), got, want)
		}
		for i, frag := range want.Fragments {
			if len(got.Fragments[i]) != len(frag) || cap(got.Fragments[i]) != len(frag) || got.Disk[i] != want.Disk[i] {
				t.Fatalf("%s fragment %d: %d tuples (cap %d) on disk %d, want %d on disk %d", f.Signature(), i,
					len(got.Fragments[i]), cap(got.Fragments[i]), got.Disk[i], len(frag), want.Disk[i])
			}
			for j, tup := range frag {
				if !got.Fragments[i][j].Equal(tup) {
					t.Fatalf("%s fragment %d position %d: %v, want %v", f.Signature(), i, j, got.Fragments[i][j], tup)
				}
			}
		}
	}
}

// TestGenerateRegionChecks: what Generate fills holds no pointer out of
// itself, whichever attribute places the rows.
func TestGenerateRegionChecks(t *testing.T) {
	const n, seed = 1000, 5
	schema := relation.WisconsinSchema
	hashStr, _ := NewHash(schema, []string{"stringu1"}, 5)
	mod, _ := NewMod(schema, "unique2", 8)
	for _, f := range []Func{hashStr, mod} {
		rows := relation.NewWisconsinRows(n, seed)
		col := schema.MustIndex(f.Key()[0])
		p, region, err := generate("A", schema, f, 3, n, n*relation.WisconsinRowStringBytes,
			func(i int) relation.Value { return rows.Value(col, i) }, rows.Row)
		if err != nil {
			t.Fatal(err)
		}
		if err := region.Check(); err != nil {
			t.Errorf("%s: %v", f.Signature(), err)
		}
		if got := len(region.Tuples()); got != n || p.Cardinality() != n {
			t.Errorf("%s: region holds %d tuples, fragments %d, want %d", f.Signature(), got, p.Cardinality(), n)
		}
	}
}

func TestPartitionDiskPlacementRoundRobin(t *testing.T) {
	r := relation.Wisconsin("A", 100, 3)
	h, _ := NewHash(r.Schema, []string{"unique2"}, 10)
	p, err := Partition(r, h, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range p.Disk {
		if d != i%4 {
			t.Fatalf("fragment %d on disk %d, want %d", i, d, i%4)
		}
	}
	if _, err := Partition(r, h, 0); err == nil {
		t.Error("zero disks accepted")
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
	if _, err := FromFragments("f", s, nil, frags, 0); err == nil {
		t.Error("zero disks accepted")
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

func TestFragmentOfKeyMatchesFragmentOf(t *testing.T) {
	r := relation.Wisconsin("A", 500, 3)
	h, _ := NewHash(r.Schema, []string{"unique2"}, 32)
	u2 := r.Schema.MustIndex("unique2")
	for _, tup := range r.Tuples {
		byTuple := h.FragmentOf(tup)
		byKey := h.FragmentOfKey([]relation.Value{tup[u2]})
		if byTuple != byKey {
			t.Fatalf("hash: FragmentOf=%d FragmentOfKey=%d", byTuple, byKey)
		}
	}
	// A composite INT+STRING key: the extracted key routes like the key
	// columns in place, and extracting nothing allocates nothing.
	h2, _ := NewHash(r.Schema, []string{"ten", "stringu1"}, 13)
	cols := []int{r.Schema.MustIndex("ten"), r.Schema.MustIndex("stringu1")}
	key := make([]relation.Value, len(cols))
	for _, tup := range r.Tuples {
		key[0], key[1] = tup[cols[0]], tup[cols[1]]
		if byKey, byCols := h2.FragmentOfKey(key), h2.FragmentOfCols(tup, cols); byKey != byCols || byKey != h2.FragmentOf(tup) {
			t.Fatalf("hash: FragmentOfKey=%d FragmentOfCols=%d FragmentOf=%d", byKey, byCols, h2.FragmentOf(tup))
		}
	}
	if n := testing.AllocsPerRun(100, func() { h2.FragmentOfKey(key) }); n != 0 {
		t.Errorf("Hash.FragmentOfKey allocates %v times per call, want 0", n)
	}
	m, _ := NewMod(r.Schema, "unique2", 32)
	for _, tup := range r.Tuples {
		if m.FragmentOf(tup) != m.FragmentOfKey([]relation.Value{tup[u2]}) {
			t.Fatal("mod: FragmentOf and FragmentOfKey disagree")
		}
	}
}

func TestSignatures(t *testing.T) {
	r := relation.Wisconsin("A", 10, 3)
	h, _ := NewHash(r.Schema, []string{"unique2"}, 7)
	m, _ := NewMod(r.Schema, "unique2", 7)
	rr, _ := NewRoundRobin(7)
	if h.Signature() != "hash/7" || m.Signature() != "mod/7" || rr.Signature() != "rr/7" {
		t.Errorf("signatures = %q %q %q", h.Signature(), m.Signature(), rr.Signature())
	}
	if h.Signature() == m.Signature() {
		t.Error("hash and mod must not share a signature")
	}
}

func TestRoundRobinKeyRoutingPanics(t *testing.T) {
	rr, _ := NewRoundRobin(3)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	rr.FragmentOfKey(nil)
}

func TestModFragmentOfKeyArity(t *testing.T) {
	r := relation.Wisconsin("A", 10, 3)
	m, _ := NewMod(r.Schema, "unique2", 7)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong key arity")
		}
	}()
	m.FragmentOfKey([]relation.Value{relation.Int(1), relation.Int(2)})
}

func TestRangePartitioner(t *testing.T) {
	r := intRel(t, "r", -5, 0, 9, 10, 11, 99, 100, 1000)
	rp, err := NewRange(r.Schema, "k", []int64{10, 100})
	if err != nil {
		t.Fatal(err)
	}
	if rp.Degree() != 3 {
		t.Fatalf("Degree = %d", rp.Degree())
	}
	want := []int{0, 0, 0, 1, 1, 1, 2, 2} // <10 | [10,100) | >=100
	for i, tup := range r.Tuples {
		if got := rp.FragmentOf(tup); got != want[i] {
			t.Errorf("FragmentOf(k=%v) = %d, want %d", tup[0], got, want[i])
		}
	}
	if k := rp.Key(); len(k) != 1 || k[0] != "k" {
		t.Errorf("Key = %v", k)
	}
	if rp.Signature() != "range[10 100]" {
		t.Errorf("Signature = %q", rp.Signature())
	}
	// FragmentOfKey agrees with FragmentOf.
	for _, tup := range r.Tuples {
		if rp.FragmentOf(tup) != rp.FragmentOfKey([]relation.Value{tup[0]}) {
			t.Fatal("FragmentOf and FragmentOfKey disagree")
		}
	}
}

func TestNewRangeValidation(t *testing.T) {
	s := relation.MustSchema(
		relation.Column{Name: "k", Type: relation.TInt},
		relation.Column{Name: "s", Type: relation.TString},
	)
	if _, err := NewRange(s, "k", nil); err == nil {
		t.Error("empty bounds accepted")
	}
	if _, err := NewRange(s, "k", []int64{5, 5}); err == nil {
		t.Error("non-ascending bounds accepted")
	}
	if _, err := NewRange(s, "s", []int64{1}); err == nil {
		t.Error("string column accepted")
	}
	if _, err := NewRange(s, "absent", []int64{1}); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestRangePartitionLossless(t *testing.T) {
	r := relation.Wisconsin("A", 1000, 3)
	rp, err := NewRange(r.Schema, "unique2", []int64{250, 500, 750})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Partition(r, rp, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Degree() != 4 || !p.Union().EqualMultiset(r) {
		t.Error("range partition lost tuples")
	}
	// unique2 is sequential 0..999: exactly 250 per fragment.
	for i, sz := range p.FragmentSizes() {
		if sz != 250 {
			t.Errorf("fragment %d = %d tuples", i, sz)
		}
	}
	// Order property: every key in fragment i is below every key in i+1.
	u2 := r.Schema.MustIndex("unique2")
	for i := 0; i+1 < p.Degree(); i++ {
		maxI := int64(-1 << 62)
		for _, tup := range p.Fragments[i] {
			if v := tup[u2].AsInt(); v > maxI {
				maxI = v
			}
		}
		for _, tup := range p.Fragments[i+1] {
			if tup[u2].AsInt() <= maxI {
				t.Fatalf("range order violated between fragments %d and %d", i, i+1)
			}
		}
	}
}

func TestRangeKeyArityPanics(t *testing.T) {
	s := relation.MustSchema(relation.Column{Name: "k", Type: relation.TInt})
	rp, _ := NewRange(s, "k", []int64{10})
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong key arity")
		}
	}()
	rp.FragmentOfKey(nil)
}
