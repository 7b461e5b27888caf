package relation

import (
	"math"
	"math/rand"
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
	region := wisconsinRegion(n, 1)
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
// by row, and value by value or key hash by key hash for loaders that ask
// for one column before the row exists.
func TestWisconsinRowsAgreeWithRelation(t *testing.T) {
	const n = 300
	r := Wisconsin("A", n, 9)
	rows := NewWisconsinRows(n, 9)
	order := make([]int32, n)
	for i := range order { // any order
		order[i] = int32(n - 1 - i)
	}
	region := rows.Shard(order)
	if err := region.Check(); err != nil {
		t.Fatal(err)
	}
	for u2 := n - 1; u2 >= 0; u2-- {
		if row := region.Tuples()[n-1-u2]; !row.Equal(r.Tuples[u2]) {
			t.Fatalf("row %d = %v, relation has %v", u2, row, r.Tuples[u2])
		}
		for c := 0; c < WisconsinSchema.Len(); c++ {
			if v := rows.Value(c, u2); !v.Equal(r.Tuples[u2][c]) {
				t.Fatalf("Value(%d, %d) = %v, relation has %v", c, u2, v, r.Tuples[u2][c])
			}
			var h [1]uint64
			rows.KeyHashes(c, u2, h[:1])
			if want := r.Tuples[u2].HashOn([]int{c}); h[0] != want {
				t.Fatalf("KeyHashes(%d, %d) = %#x, HashOn of the row %#x", c, u2, h[0], want)
			}
		}
	}
}

// TestWisconsinPermutationIsRandPerm: unique1 is math/rand's Perm of the
// seeded source, element for element, so the generated relations are the
// ones Perm gave. A scripted source forces the draws Int31n rejects, which
// real seeds never produce at these sizes: the copy must reject the same
// draws and make as many.
func TestWisconsinPermutationIsRandPerm(t *testing.T) {
	for _, n := range []int{1, 2, 3, 64, 65, 1000, 20000} {
		for seed := int64(0); seed < 5; seed++ {
			want := rand.New(rand.NewSource(seed)).Perm(n)
			if got := NewWisconsinRows(n, seed).perm; !permEqual(got, want) {
				t.Fatalf("n %d seed %d: permutation differs from rand.Perm", n, seed)
			}
		}
	}
	const top, second = math.MaxInt32<<32 | math.MaxUint32, (math.MaxInt32 - 1) << 32 // Int31 draws 2³¹−1 and 2³¹−2
	script := []int64{top, 12345 << 32, second, top, 0x5bd1e995<<32 | 17, top, second, 7 << 32}
	for _, n := range []int{3, 65, 1000} {
		a, b := &scriptedSource{script: script}, &scriptedSource{script: script}
		want := rand.New(a).Perm(n)
		if got := wisconsinPerm(n, b); !permEqual(got, want) {
			t.Fatalf("n %d: permutation over the scripted source differs from rand.Perm", n)
		}
		if a.draws != b.draws || a.draws <= n {
			t.Errorf("n %d: rand.Perm drew %d times, the copy %d; a rejection needs more than %d", n, a.draws, b.draws, n)
		}
	}
}

// scriptedSource is a rand.Source that plays its script over and over.
type scriptedSource struct {
	script []int64
	draws  int
}

func (s *scriptedSource) Int63() int64 {
	v := s.script[s.draws%len(s.script)]
	s.draws++
	return v
}

func (s *scriptedSource) Seed(int64) {}

func permEqual(got []int32, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for i, v := range want {
		if int(got[i]) != v {
			return false
		}
	}
	return true
}

// TestWisconsinKeyHashesMatchKeyHash: a run's key hashes are each row's
// value's KeyHash, for every column, over runs that start and end anywhere,
// and KeyHashes writes nothing outside its run.
func TestWisconsinKeyHashesMatchKeyHash(t *testing.T) {
	const n = 1000
	rows := NewWisconsinRows(n, 5)
	const sentinel = 0xdead
	for col := 0; col < WisconsinSchema.Len(); col++ {
		for _, run := range [][2]int{{0, n}, {37, 165}, {127, 129}, {300, 701}, {n - 1, n}, {500, 500}} {
			buf := make([]uint64, run[1]-run[0]+2)
			for k := range buf {
				buf[k] = sentinel
			}
			rows.KeyHashes(col, run[0], buf[1:len(buf)-1])
			if buf[0] != sentinel || buf[len(buf)-1] != sentinel {
				t.Fatalf("column %d run %v: KeyHashes wrote outside its run", col, run)
			}
			for k, h := range buf[1 : len(buf)-1] {
				u2 := run[0] + k
				if want := rows.Value(col, u2).KeyHash(); h != want {
					t.Fatalf("column %d run %v row %d: KeyHashes %#x, Value.KeyHash %#x", col, run, u2, h, want)
				}
			}
		}
	}
}
