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
	return &Relation{Name: name, Schema: WisconsinSchema, Tuples: wisconsinRegion(n, seed).Tuples()}
}

// wisconsinRegion generates Wisconsin(n, seed) in unique2 order into one
// region: its text table, then the rows.
func wisconsinRegion(n int, seed int64) *Region {
	rows := NewWisconsinRows(n, seed)
	region := NewRegion(n, n*WisconsinSchema.Len(), n*WisconsinRowStringBytes)
	for u2 := 0; u2 < n; u2++ {
		rows.Row(region, u2)
	}
	return region
}

// WisconsinRows is a Wisconsin relation as a row source: row u2 of
// Wisconsin(n, seed), or any one value of it, on demand. Loaders that lay
// rows out in an order of their own (fragment by fragment) generate from it
// instead of materializing the relation first. It is read-only once built,
// so any number of goroutines may read rows from it.
type WisconsinRows struct {
	perm []int
}

// NewWisconsinRows prepares the row source of Wisconsin(n, seed).
func NewWisconsinRows(n int, seed int64) *WisconsinRows {
	if n <= 0 {
		panic(fmt.Sprintf("relation: Wisconsin cardinality must be positive, got %d", n))
	}
	rng := rand.New(rand.NewSource(seed))
	return &WisconsinRows{perm: rng.Perm(n)}
}

// WisconsinRowStringBytes is what a row takes of a region's string bytes: its
// share of the region's text table. unique1 is a permutation of unique2's
// 0..n-1, so stringu1 and stringu2 render the same n texts, and both refer to
// the one copy of each in the table; string4 shares its four constants.
const WisconsinRowStringBytes = wisconsinStringLen

// Row appends row u2 to region. The first row appended to a region renders
// the relation's text table into it; stringu1 and stringu2 refer to their
// texts there.
func (w *WisconsinRows) Row(region *Region, u2 int) {
	if region.texts == 0 {
		region.texts = wisconsinTexts(region, len(w.perm))
	}
	u1 := int64(w.perm[u2])
	region.Begin(WisconsinSchema.Len())
	region.Int(u1)
	region.Int(int64(u2))
	region.Int(u1 % 2)
	region.Int(u1 % 4)
	region.Int(u1 % 10)
	region.Int(u1 % 20)
	region.Int(u1 % 100)
	region.Int(u1 % 10)
	region.Int(u1 % 5)
	region.Int(u1 % 2)
	region.Int(u1)
	region.Int((u1 % 100) * 2)
	region.Int((u1%100)*2 + 1)
	region.ref(region.texts+uintptr(u1)*wisconsinStringLen, wisconsinStringLen)
	region.ref(region.texts+uintptr(u2)*wisconsinStringLen, wisconsinStringLen)
	region.Shared(string4Cycle[u2%len(string4Cycle)])
}

// Value returns column col of row u2 without building the row: what a
// partitioning function needs to place a row before it exists.
func (w *WisconsinRows) Value(col, u2 int) Value {
	u1 := int64(w.perm[u2])
	switch col {
	case 0, 10:
		return Int(u1)
	case 1:
		return Int(int64(u2))
	case 2, 9:
		return Int(u1 % 2)
	case 3:
		return Int(u1 % 4)
	case 4, 7:
		return Int(u1 % 10)
	case 5:
		return Int(u1 % 20)
	case 6:
		return Int(u1 % 100)
	case 8:
		return Int(u1 % 5)
	case 11:
		return Int((u1 % 100) * 2)
	case 12:
		return Int((u1%100)*2 + 1)
	case 13:
		return Str(wisconsinText(u1))
	case 14:
		return Str(wisconsinText(int64(u2)))
	case 15:
		return Str(string4Cycle[u2%len(string4Cycle)])
	}
	panic(fmt.Sprintf("relation: Wisconsin has no column %d", col))
}

// The benchmark's strings are 52 characters: a 7-letter base-26 rendering of
// an integer padded with 'x'. Only the prefix varies, as in the original
// generator.
const (
	wisconsinStringLen = 52
	wisconsinPrefixLen = 7
	wisconsinPad       = "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"
)

// putWisconsinString writes v in the benchmark's string format over text,
// which is wisconsinStringLen bytes long.
func putWisconsinString(text []byte, v int64) {
	for i := wisconsinPrefixLen - 1; i >= 0; i-- {
		text[i] = byte('A' + v%26)
		v /= 26
	}
	copy(text[wisconsinPrefixLen:], wisconsinPad)
}

// wisconsinText returns v in the benchmark's string format.
func wisconsinText(v int64) string {
	text := make([]byte, wisconsinStringLen)
	putWisconsinString(text, v)
	return string(text)
}

// wisconsinTexts renders the texts of 0..n-1 into the next n·52 of region's
// string bytes, in value order, and returns the table's address: text v lies
// 52·v bytes past it.
func wisconsinTexts(region *Region, n int) uintptr {
	table := region.bytes(n * wisconsinStringLen)
	text := region.str[region.ns-n*wisconsinStringLen : region.ns]
	for v := 0; v < n; v++ {
		putWisconsinString(text[v*wisconsinStringLen:][:wisconsinStringLen], int64(v))
	}
	return table
}
