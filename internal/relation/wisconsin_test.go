package relation

import (
	"testing"
	"testing/quick"
)

func TestWisconsinDeterministic(t *testing.T) {
	a := Wisconsin("A", 1000, 42)
	b := Wisconsin("B", 1000, 42)
	for i := range a.Tuples {
		if !a.Tuples[i].Equal(b.Tuples[i]) {
			t.Fatalf("tuple %d differs across identical seeds", i)
		}
	}
	c := Wisconsin("C", 1000, 43)
	same := true
	for i := range a.Tuples {
		if !a.Tuples[i].Equal(c.Tuples[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical relations")
	}
}

func TestWisconsinUnique1IsPermutation(t *testing.T) {
	n := 5000
	r := Wisconsin("A", n, 7)
	u1 := WisconsinSchema.MustIndex("unique1")
	seen := make([]bool, n)
	for _, tup := range r.Tuples {
		v := tup[u1].AsInt()
		if v < 0 || v >= int64(n) {
			t.Fatalf("unique1 out of range: %d", v)
		}
		if seen[v] {
			t.Fatalf("unique1 value %d repeated", v)
		}
		seen[v] = true
	}
}

func TestWisconsinUnique2Sequential(t *testing.T) {
	r := Wisconsin("A", 100, 7)
	u2 := WisconsinSchema.MustIndex("unique2")
	for i, tup := range r.Tuples {
		if tup[u2].AsInt() != int64(i) {
			t.Fatalf("unique2[%d] = %d", i, tup[u2].AsInt())
		}
	}
}

func TestWisconsinDerivedAttributes(t *testing.T) {
	r := Wisconsin("A", 2000, 11)
	idx := func(name string) int { return WisconsinSchema.MustIndex(name) }
	u1, two, four, ten, twenty := idx("unique1"), idx("two"), idx("four"), idx("ten"), idx("twenty")
	onePct, tenPct, twentyPct, fiftyPct := idx("onePercent"), idx("tenPercent"), idx("twentyPercent"), idx("fiftyPercent")
	u3, even, odd := idx("unique3"), idx("evenOnePercent"), idx("oddOnePercent")
	for _, tup := range r.Tuples {
		v := tup[u1].AsInt()
		checks := []struct {
			name string
			got  int64
			want int64
		}{
			{"two", tup[two].AsInt(), v % 2},
			{"four", tup[four].AsInt(), v % 4},
			{"ten", tup[ten].AsInt(), v % 10},
			{"twenty", tup[twenty].AsInt(), v % 20},
			{"onePercent", tup[onePct].AsInt(), v % 100},
			{"tenPercent", tup[tenPct].AsInt(), v % 10},
			{"twentyPercent", tup[twentyPct].AsInt(), v % 5},
			{"fiftyPercent", tup[fiftyPct].AsInt(), v % 2},
			{"unique3", tup[u3].AsInt(), v},
			{"evenOnePercent", tup[even].AsInt(), (v % 100) * 2},
			{"oddOnePercent", tup[odd].AsInt(), (v%100)*2 + 1},
		}
		for _, c := range checks {
			if c.got != c.want {
				t.Fatalf("%s = %d, want %d (unique1=%d)", c.name, c.got, c.want, v)
			}
		}
	}
}

func TestWisconsinStrings(t *testing.T) {
	r := Wisconsin("A", 8, 1)
	s1 := WisconsinSchema.MustIndex("stringu1")
	s4 := WisconsinSchema.MustIndex("string4")
	for i, tup := range r.Tuples {
		if got := len(tup[s1].AsString()); got != 52 {
			t.Fatalf("stringu1 length = %d, want 52", got)
		}
		if tup[s4].AsString() != string4Cycle[i%4] {
			t.Fatalf("string4[%d] = %q", i, tup[s4].AsString())
		}
	}
}

// TestWisconsinStringEncodingInjective: the text table holds one distinct
// text per value, text v at 52·v, each what wisconsinText renders for v.
func TestWisconsinStringEncodingInjective(t *testing.T) {
	seen := make(map[string]int)
	const n = 10000
	region := NewRegion(0, 0, n*wisconsinStringLen)
	if table := wisconsinTexts(region, n); table != region.strAddr || region.ns != n*wisconsinStringLen {
		t.Fatalf("table at %#x using %d bytes, want %#x and %d", table, region.ns, region.strAddr, n*wisconsinStringLen)
	}
	for v := 0; v < n; v++ {
		s := string(region.str[v*wisconsinStringLen:][:wisconsinStringLen])
		if s != wisconsinText(int64(v)) {
			t.Fatalf("text %d = %q, want %q", v, s, wisconsinText(int64(v)))
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("text table collision: %d and %d -> %q", prev, v, s)
		}
		seen[s] = v
	}
}

func TestWisconsinRejectsNonPositive(t *testing.T) {
	mustPanic(t, func() { Wisconsin("A", 0, 1) })
	mustPanic(t, func() { Wisconsin("A", -5, 1) })
}

// Property: for any small n and seed, unique1 is a permutation (checked via
// sum and xor aggregates to keep the property cheap).
func TestWisconsinPermutationProperty(t *testing.T) {
	f := func(nRaw uint16, seed int64) bool {
		n := int(nRaw%500) + 1
		r := Wisconsin("A", n, seed)
		u1 := WisconsinSchema.MustIndex("unique1")
		var sum int64
		for _, tup := range r.Tuples {
			sum += tup[u1].AsInt()
		}
		return sum == int64(n)*int64(n-1)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestWisconsinRowsAgreeWithRelation: the row source is the relation — row
// by row, and value by value for loaders that ask for one column before the
// row exists.
func TestWisconsinRowsAgreeWithRelation(t *testing.T) {
	const n = 300
	r := Wisconsin("A", n, 9)
	rows := NewWisconsinRows(n, 9)
	region := NewRegion(n, n*WisconsinSchema.Len(), n*WisconsinRowStringBytes)
	for u2 := n - 1; u2 >= 0; u2-- { // any order
		rows.Row(region, u2)
		if row := region.Tuples()[n-1-u2]; !row.Equal(r.Tuples[u2]) {
			t.Fatalf("row %d = %v, relation has %v", u2, row, r.Tuples[u2])
		}
		for c := 0; c < WisconsinSchema.Len(); c++ {
			if v := rows.Value(c, u2); !v.Equal(r.Tuples[u2][c]) {
				t.Fatalf("Value(%d, %d) = %v, relation has %v", c, u2, v, r.Tuples[u2][c])
			}
		}
	}
}
