package relation

import (
	"fmt"
	"math/rand"
)

// The Wisconsin benchmark relation [Bitton83], the dataset used by all the
// paper's experiments (§5.3 "we use the relations of the Wisconsin
// benchmark"). The schema follows the original definition: thirteen integer
// attributes derived from two unique keys, plus three 52-byte string
// attributes. unique1 is a random permutation of 0..n-1; unique2 is
// sequential and serves as the default join/partitioning key.

// WisconsinSchema is the schema shared by every generated Wisconsin relation.
var WisconsinSchema = MustSchema(
	Column{"unique1", TInt},
	Column{"unique2", TInt},
	Column{"two", TInt},
	Column{"four", TInt},
	Column{"ten", TInt},
	Column{"twenty", TInt},
	Column{"onePercent", TInt},
	Column{"tenPercent", TInt},
	Column{"twentyPercent", TInt},
	Column{"fiftyPercent", TInt},
	Column{"unique3", TInt},
	Column{"evenOnePercent", TInt},
	Column{"oddOnePercent", TInt},
	Column{"stringu1", TString},
	Column{"stringu2", TString},
	Column{"string4", TString},
)

// string4Cycle is the classic cyclic pattern for the string4 attribute.
var string4Cycle = []string{"AAAAxxxx", "HHHHxxxx", "OOOOxxxx", "VVVVxxxx"}

// Wisconsin generates an n-tuple Wisconsin relation with a deterministic
// pseudo-random permutation for unique1 seeded by seed. The same (n, seed)
// always yields the same relation, which keeps every experiment repeatable.
func Wisconsin(name string, n int, seed int64) *Relation {
	rows := NewWisconsinRows(n, seed)
	r := &Relation{Name: name, Schema: WisconsinSchema, Tuples: make([]Tuple, n)}
	// One value chunk and one arena for the whole relation.
	var slab Slab
	slab.Reserve(n*WisconsinSchema.Len(), n*WisconsinRowStringBytes)
	for u2 := range r.Tuples {
		r.Tuples[u2] = rows.Row(&slab, u2)
	}
	return r
}

// WisconsinRows is a Wisconsin relation as a row source: row u2 of
// Wisconsin(n, seed), or any one value of it, on demand. Loaders that lay
// rows out in an order of their own (fragment by fragment) generate from it
// instead of materializing the relation first. Not safe for concurrent use.
type WisconsinRows struct {
	perm    []int
	scratch Tuple // Value's row of integer columns
}

// NewWisconsinRows prepares the row source of Wisconsin(n, seed).
func NewWisconsinRows(n int, seed int64) *WisconsinRows {
	if n <= 0 {
		panic(fmt.Sprintf("relation: Wisconsin cardinality must be positive, got %d", n))
	}
	rng := rand.New(rand.NewSource(seed))
	return &WisconsinRows{perm: rng.Perm(n), scratch: make(Tuple, WisconsinSchema.Len())}
}

// WisconsinRowStringBytes is the arena a row takes: stringu1 and stringu2
// are written into it, string4 shares its four constants.
const WisconsinRowStringBytes = 2 * wisconsinStringLen

// ints fills the integer columns of row u2 into t, a tuple fresh from
// Slab.New (setInt's condition).
func (w *WisconsinRows) ints(t Tuple, u2 int) {
	u1 := int64(w.perm[u2])
	t.setInt(0, u1)
	t.setInt(1, int64(u2))
	t.setInt(2, u1%2)
	t.setInt(3, u1%4)
	t.setInt(4, u1%10)
	t.setInt(5, u1%20)
	t.setInt(6, u1%100)
	t.setInt(7, u1%10)
	t.setInt(8, u1%5)
	t.setInt(9, u1%2)
	t.setInt(10, u1)
	t.setInt(11, (u1%100)*2)
	t.setInt(12, (u1%100)*2+1)
}

// Row builds row u2 in slab, its two generated strings written straight
// into the arena.
func (w *WisconsinRows) Row(slab *Slab, u2 int) Tuple {
	t := slab.New(WisconsinSchema.Len())
	w.ints(t, u2)
	t[13] = slab.wisconsinString(int64(w.perm[u2]))
	t[14] = slab.wisconsinString(int64(u2))
	t[15] = Str(string4Cycle[u2%len(string4Cycle)])
	return t
}

// Value returns column col of row u2 without building the row (for an
// integer column; a string column costs a row of its own): what a
// partitioning function needs to place a row before it exists.
func (w *WisconsinRows) Value(col, u2 int) Value {
	if WisconsinSchema.Column(col).Type == TInt {
		w.ints(w.scratch, u2)
		return w.scratch[col]
	}
	var slab Slab
	return w.Row(&slab, u2)[col]
}

// The benchmark's strings are 52 characters: a 7-letter base-26 rendering of
// an integer padded with 'x'. Only the prefix varies, as in the original
// generator.
const (
	wisconsinStringLen = 52
	wisconsinPrefixLen = 7
	wisconsinPad       = "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"
)

// wisconsinString writes v in the benchmark's string format straight into
// the arena.
func (s *Slab) wisconsinString(v int64) Value {
	var prefix [wisconsinPrefixLen]byte
	for i := len(prefix) - 1; i >= 0; i-- {
		prefix[i] = byte('A' + v%26)
		v /= 26
	}
	s.room(wisconsinStringLen)
	off := s.arena.Len()
	s.arena.Write(prefix[:])
	s.arena.WriteString(wisconsinPad)
	return s.written(off)
}

// DewittA generates the 200K-tuple "DewittA" relation used in §5.2 for the
// Allcache remote-vs-local selection experiment.
func DewittA(seed int64) *Relation { return Wisconsin("DewittA", 200_000, seed) }
