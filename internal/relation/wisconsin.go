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
	if n <= 0 {
		panic(fmt.Sprintf("relation: Wisconsin cardinality must be positive, got %d", n))
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	r := &Relation{Name: name, Schema: WisconsinSchema, Tuples: make([]Tuple, 0, n)}
	var slab Slab
	slab.Reserve(n * WisconsinSchema.Len())
	for u2 := 0; u2 < n; u2++ {
		u1 := int64(perm[u2])
		t := Tuple{
			Int(u1),
			Int(int64(u2)),
			Int(u1 % 2),
			Int(u1 % 4),
			Int(u1 % 10),
			Int(u1 % 20),
			Int(u1 % 100),
			Int(u1 % 10),
			Int(u1 % 5),
			Int(u1 % 2),
			Int(u1),
			Int((u1 % 100) * 2),
			Int((u1%100)*2 + 1),
			Str(wisconsinString(u1)),
			Str(wisconsinString(int64(u2))),
			Str(string4Cycle[u2%len(string4Cycle)]),
		}
		r.Tuples = append(r.Tuples, slab.Copy(t))
	}
	return r
}

// wisconsinString converts an integer into the benchmark's 52-character
// string format: a 7-letter base-26 prefix padded with 'x'. Only the prefix
// varies, as in the original generator.
func wisconsinString(v int64) string {
	var b [52]byte
	for i := 6; i >= 0; i-- {
		b[i] = byte('A' + v%26)
		v /= 26
	}
	for i := 7; i < len(b); i++ {
		b[i] = 'x'
	}
	return string(b[:])
}

// DewittA generates the 200K-tuple "DewittA" relation used in §5.2 for the
// Allcache remote-vs-local selection experiment.
func DewittA(seed int64) *Relation { return Wisconsin("DewittA", 200_000, seed) }
