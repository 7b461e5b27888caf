// Package relation provides the data model of the DBS3 reproduction: typed
// values, schemas, tuples, in-memory relations, and the Wisconsin benchmark
// generator used throughout the paper's evaluation [Bitton83].
package relation

import (
	"fmt"
	"strconv"
	"strings"
	"unsafe"
)

// Type enumerates the value types supported by the engine. The Wisconsin
// benchmark only needs integers and fixed strings, which is also all the
// paper's experiments use.
type Type int

const (
	// TInt is a 64-bit signed integer.
	TInt Type = iota
	// TString is a variable-length string.
	TString
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TInt:
		return "INT"
	case TString:
		return "STRING"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Value is a single typed attribute value in two words. The zero Value is
// the integer 0. Values are immutable once constructed.
//
// Layout invariants (the only unsafe code in the module lives in this file):
//   - p == nil: an integer, n is its payload.
//   - p != nil: a string, p points at its first byte and n is its length;
//     the empty string points at the package-level emptyString sentinel so
//     it stays distinguishable from an integer. p keeps the string's backing
//     bytes alive exactly as a string header would.
//
// A Value is deliberately not comparable: == would compare the byte
// pointers of two strings, not their text, and silently miss join matches
// between equal strings with distinct backings. The zero-size func array
// makes any == (and any use as a map key) a compile error; use Equal.
type Value struct {
	_ [0]func()
	p unsafe.Pointer
	n int64
}

// emptyString is what Str("") points at.
var emptyString byte

// Int returns an integer Value.
func Int(v int64) Value { return Value{n: v} }

// Str returns a string Value sharing v's backing bytes.
func Str(v string) Value {
	if len(v) == 0 {
		return Value{p: unsafe.Pointer(&emptyString)}
	}
	return Value{p: unsafe.Pointer(unsafe.StringData(v)), n: int64(len(v))}
}

// str rebuilds the string header; the caller has checked p != nil.
func (v Value) str() string { return unsafe.String((*byte)(v.p), int(v.n)) }

// Kind reports the type of the value.
func (v Value) Kind() Type {
	if v.p == nil {
		return TInt
	}
	return TString
}

// AsInt returns the integer payload. It panics if the value is not an
// integer; engine code always checks schemas before extracting payloads.
func (v Value) AsInt() int64 {
	if v.p != nil {
		panic("relation: AsInt on non-integer value")
	}
	return v.n
}

// AsString returns the string payload. It panics if the value is not a
// string.
func (v Value) AsString() string {
	if v.p == nil {
		panic("relation: AsString on non-string value")
	}
	return v.str()
}

// Equal reports whether two values have the same type and payload.
func (v Value) Equal(o Value) bool {
	if v.n != o.n || (v.p == nil) != (o.p == nil) {
		return false
	}
	return v.p == nil || v.str() == o.str()
}

// Compare orders values of the same type: -1 if v < o, 0 if equal, +1 if
// v > o. Comparing values of different types panics; plans are type-checked
// before execution.
func (v Value) Compare(o Value) int {
	if (v.p == nil) != (o.p == nil) {
		panic("relation: comparing values of different types")
	}
	if v.p == nil {
		switch {
		case v.n < o.n:
			return -1
		case v.n > o.n:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(v.str(), o.str())
}

// FNV-1a constants (hash/fnv), inlined so hashing never allocates: the
// stdlib constructor returns its state behind the hash.Hash64 interface,
// which costs one heap allocation per call — unacceptable on the join,
// group-by and routing hot paths that hash every pipelined tuple.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash returns a stable FNV-1a hash of the value, used by the hash
// partitioner, the pipelined router, and the hash join and group-by keying.
// The hash is independent of process and run (it matches hash/fnv exactly),
// and the computation is allocation-free.
func (v Value) Hash() uint64 {
	h := uint64(fnvOffset64)
	if v.p == nil {
		u := uint64(v.n)
		for k := 0; k < 8; k++ {
			h ^= uint64(byte(u >> (8 * k)))
			h *= fnvPrime64
		}
	} else {
		s := v.str()
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= fnvPrime64
		}
	}
	return h
}

// String renders the value for debugging and CLI output.
func (v Value) String() string {
	if v.p == nil {
		return strconv.FormatInt(v.n, 10)
	}
	return v.str()
}
