package relation

import (
	"fmt"
	"math"
	"math/bits"
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
var string4Cycle = [...]string{"AAAAxxxx", "HHHHxxxx", "OOOOxxxx", "VVVVxxxx"}

// Wisconsin generates an n-tuple Wisconsin relation with a deterministic
// pseudo-random permutation for unique1 seeded by seed. The same (n, seed)
// always yields the same relation, which keeps every experiment repeatable.
func Wisconsin(name string, n int, seed int64) *Relation {
	return &Relation{Name: name, Schema: WisconsinSchema, Tuples: wisconsinRegion(n, seed).Tuples()}
}

// wisconsinRegion generates Wisconsin(n, seed) in unique2 order into one
// region: its text table, then the rows.
func wisconsinRegion(n int, seed int64) *Region {
	order := make([]int32, n)
	for u2 := range order {
		order[u2] = int32(u2)
	}
	return NewWisconsinRows(n, seed).Shard(order)
}

// WisconsinRows is a Wisconsin relation as a row source: its rows in any
// order, any one value of a row, or the key hashes of a run of rows. Loaders
// that lay rows out in an order of their own (fragment by fragment) generate
// from it instead of materializing the relation first. It holds unique1 of
// every row as an int32, math/rand's Perm of the seeded source (see
// wisconsinPerm), and nothing else. It is read-only once built, so any
// number of goroutines may read values from it.
type WisconsinRows struct {
	perm []int32
}

// NewWisconsinRows prepares the row source of Wisconsin(n, seed): it draws
// unique1, the permutation rand.New(rand.NewSource(seed)).Perm(n) would
// return, in one loop (wisconsinPerm). n is at most math.MaxInt32, since row
// numbers and unique1 are kept as int32s.
func NewWisconsinRows(n int, seed int64) *WisconsinRows {
	if n <= 0 || n > math.MaxInt32 {
		panic(fmt.Sprintf("relation: Wisconsin cardinality must be in [1, %d], got %d", math.MaxInt32, n))
	}
	return &WisconsinRows{perm: wisconsinPerm(n, rand.NewSource(seed))}
}

// wisconsinPerm returns rand.New(src).Perm(n) as int32s: a copy of math/rand's
// Perm that makes the same src.Int63 draws in the same order, so it is the
// same permutation, which Go 1 keeps stable for a seeded source
// (TestWisconsinPermutationIsRandPerm pins the two together). n is at most
// math.MaxInt32, so each of Perm's Intn(i+1) draws is Int31n(i+1): a draw
// v = Int63>>32 is taken as v mod (i+1) unless it lies past Int31n's
// threshold, 2³¹−1 − 2³¹ mod (i+1), when it is drawn again. Only the top i+1
// values can lie past it, so the threshold, a second division, is computed
// for those draws alone. (A power-of-two bound, which Int31n masks, has no
// value past it, and masking and the remainder agree.)
func wisconsinPerm(n int, src rand.Source) []int32 {
	m := make([]int32, n)
	for i := range m {
		bound := uint32(i) + 1
		v := uint32(src.Int63() >> 32)
		if v > 1<<31-1-bound {
			threshold := 1<<31 - 1 - (1<<31)%bound
			for v > threshold {
				v = uint32(src.Int63() >> 32)
			}
		}
		j := v % bound
		m[i] = m[j]
		m[j] = int32(i)
	}
	return m
}

// Shard generates the rows of order, in that order, into a region of their
// own, exactly sized, and returns it: a shard's rows generated without the
// rows it drops ever existing. order names each row at most once. The region
// holds the texts those rows refer to, each once and in value order, then the
// string4 constants they use, in cycle order: the string bytes a Compaction
// of the same rows out of the whole relation's region would hold, laid out
// the same way. When order names every row, the whole relation is one shard
// of one: its table holds every text, text v at 52·v bytes past its start,
// and no row's texts are looked up.
func (w *WisconsinRows) Shard(order []int32) *Region {
	n := len(w.perm)
	words := (n + 63) / 64
	texts, used := n, uint(1)<<min(n, len(string4Cycle))-1 // bit c: a row uses string4Cycle[c]
	var marks, ranks []uint64
	if len(order) < n {
		// One slice holds the texts' marks, a bit per text a row refers
		// to, and each mark word's rank, the marked texts before it.
		index := make([]uint64, 2*words)
		marks, ranks = index[:words:words], index[words:]
		used = 0
		for _, i := range order {
			u1 := w.perm[i]
			marks[i>>6] |= 1 << (i & 63)
			marks[u1>>6] |= 1 << (u1 & 63)
			used |= 1 << (i % int32(len(string4Cycle)))
		}
		texts = 0
		for j, m := range marks {
			ranks[j] = uint64(texts)
			texts += bits.OnesCount64(m)
		}
	}
	const cols = 16 // WisconsinSchema.Len()
	region := NewRegion(len(order), cols*len(order), texts*wisconsinStringLen+bits.OnesCount(used)*len(string4Cycle[0]))
	table := uint64(region.bytes(texts * wisconsinStringLen))
	rendered := region.str[region.ns-texts*wisconsinStringLen : region.ns]
	at, last := 0, -2 // where the next text goes; the value rendered before it
	for j := range words {
		m := ^uint64(0) >> max(0, 64*(j+1)-n) // every text of word j
		if marks != nil {
			m = marks[j]
		}
		for ; m != 0; m &= m - 1 {
			v := 64*j + bits.TrailingZeros64(m)
			if v == last+1 {
				// One slice holds both texts, so the copy is known not
				// to overlap and compiles to a few moves.
				pair := rendered[at-wisconsinStringLen : at+wisconsinStringLen]
				nextWisconsinString(pair[wisconsinStringLen:2*wisconsinStringLen], pair)
			} else {
				putWisconsinString(rendered[at:at+wisconsinStringLen], int64(v))
			}
			at, last = at+wisconsinStringLen, v
		}
	}
	var string4 [len(string4Cycle)]uint64
	for c := range string4 {
		if used&(1<<c) != 0 {
			string4[c] = uint64(region.constant(string4Cycle[c]))
		}
	}
	w.write(region, order, table, string4, marks, ranks)
	return region
}

// write appends row u2 for each u2 of order, in that order, its stringu1 and
// stringu2 referring to the text table at texts and its string4 to the
// constants at string4. With marks nil the table holds every text, text v at
// 52·v bytes past texts; otherwise it holds the marked texts only, text v at
// 52 bytes times v's rank among them. It is one loop over the rows
// that writes each one's header and 32 value words, its cursor in local
// variables.
func (w *WisconsinRows) write(region *Region, order []int32, texts uint64, string4 [len(string4Cycle)]uint64, marks, ranks []uint64) {
	const cols = 16 // WisconsinSchema.Len()
	hdr, val := region.next(len(order), cols*len(order))
	const textLen = wisconsinStringLen
	string4Len := uint64(len(string4Cycle[0])) // all four are as long
	addr, perm := uint64(region.valAddr)+uint64(8*region.nv), w.perm
	for _, i := range order {
		u2 := uint64(i)
		u1 := uint64(perm[i])
		t1, t2 := u1, u2
		if marks != nil {
			t1, t2 = rank(marks, ranks, u1), rank(marks, ranks, u2)
		}
		h, v := hdr[:3:3], val[:2*cols:2*cols]
		h[0], h[1], h[2] = addr, cols, cols
		pct := u1 % 100
		v[0], v[1] = 0, u1
		v[2], v[3] = 0, u2
		v[4], v[5] = 0, u1%2
		v[6], v[7] = 0, u1%4
		v[8], v[9] = 0, u1%10
		v[10], v[11] = 0, u1%20
		v[12], v[13] = 0, pct
		v[14], v[15] = 0, u1%10
		v[16], v[17] = 0, u1%5
		v[18], v[19] = 0, u1%2
		v[20], v[21] = 0, u1
		v[22], v[23] = 0, pct*2
		v[24], v[25] = 0, pct*2+1
		v[26], v[27] = texts+t1*textLen, textLen
		v[28], v[29] = texts+t2*textLen, textLen
		v[30], v[31] = string4[u2%uint64(len(string4))], string4Len
		hdr, val = hdr[3:], val[2*cols:]
		addr += 16 * cols
	}
	region.nt += len(order)
	region.nv += 2 * cols * len(order)
}

// rank returns how many marked texts come before text v: the marked texts
// before v's word of marks, which ranks holds, and a popcount of those below
// v in the word.
func rank(marks, ranks []uint64, v uint64) uint64 {
	return ranks[v>>6] + uint64(bits.OnesCount64(marks[v>>6]&(1<<(v&63)-1)))
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

// KeyHashes sets hs[k] to Value(col, from+k).KeyHash() for every k: the
// hashes a loader places a run of rows by before they exist. unique2, the
// row number, is hashed in a loop of its own by fnvInt, with no Value
// built; a text column (stringu1, stringu2) is rendered into a buffer on the
// stack, so placing on it allocates nothing. Any other column builds each
// row's Value, an integer or a string4 constant, neither of which allocates.
func (w *WisconsinRows) KeyHashes(col, from int, hs []uint64) {
	switch col {
	case 1:
		for k := range hs {
			hs[k] = foldKey(fnvOffset64, fnvInt(uint64(from+k)))
		}
	case 13, 14:
		var text [wisconsinStringLen]byte
		for k := range hs {
			v := int64(from + k)
			if col == 13 {
				v = int64(w.perm[from+k])
			}
			putWisconsinString(text[:], v)
			hs[k] = foldKey(fnvOffset64, fnvText(text[:]))
		}
	default:
		for k := range hs {
			hs[k] = w.Value(col, from+k).KeyHash()
		}
	}
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

// nextWisconsinString writes text v+1 over next, given text v in prev: text
// v with its base-26 prefix incremented, carry and all, so no text costs a
// division.
func nextWisconsinString(next, prev []byte) {
	copy(next, prev[:wisconsinStringLen])
	for i := wisconsinPrefixLen - 1; i >= 0; i-- {
		if next[i] != 'Z' {
			next[i]++
			return
		}
		next[i] = 'A'
	}
}
