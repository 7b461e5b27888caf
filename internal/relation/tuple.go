package relation

import (
	"fmt"
	"strings"
)

// Tuple is one row: a flat slice of values positionally matching a schema.
// Tuples are treated as immutable by the engine; operators build new tuples
// rather than mutating inputs, so a tuple may be shared freely between
// operator instances and threads.
type Tuple []Value

// NewTuple builds a tuple from values.
func NewTuple(vals ...Value) Tuple { return Tuple(vals) }

// Equal reports whether two tuples are identical value-by-value.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// HashOn hashes the tuple on the given column positions. It is the basis of
// both static hash partitioning and dynamic redistribution (the transmit
// operator), so the same key always routes to the same fragment.
func (t Tuple) HashOn(cols []int) uint64 {
	// Combine per-column hashes with the FNV-1a folding constant so that
	// multi-attribute keys mix well.
	h := uint64(fnvOffset64)
	for _, c := range cols {
		h = foldKey(h, t[c].Hash())
	}
	return h
}

// Compare orders two tuples of the same schema value-by-value (shorter
// tuples order first on a shared prefix). Deterministic result emission
// (aggregate close) sorts with it instead of rendering canonical string
// keys, which would allocate per tuple.
func (t Tuple) Compare(o Tuple) int {
	n := len(t)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(o[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(o):
		return -1
	case len(t) > len(o):
		return 1
	default:
		return 0
	}
}

// RowOf converts a tuple to the plain-Go row form cursors and the wire
// carry: one int64 or string per column.
func RowOf(t Tuple) []any {
	row := make([]any, len(t))
	for i, v := range t {
		if v.Kind() == TInt {
			row[i] = v.AsInt()
		} else {
			row[i] = v.AsString()
		}
	}
	return row
}

// TupleOf is the inverse of RowOf. The tuple shares the row's strings; any
// Go type other than int64 and string is an error.
func TupleOf(row []any) (Tuple, error) {
	t := make(Tuple, len(row))
	for i, x := range row {
		switch v := x.(type) {
		case int64:
			t[i] = Int(v)
		case string:
			t[i] = Str(v)
		default:
			return nil, fmt.Errorf("relation: column %d is %T, want int64 or string", i, x)
		}
	}
	return t, nil
}

// String renders the tuple as "[v1 v2 ...]".
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Key renders the tuple as a canonical string; used by tests for multiset
// comparison of results.
func (t Tuple) Key() string {
	parts := make([]string, len(t))
	for i, v := range t {
		if v.Kind() == TInt {
			parts[i] = "i:" + v.String()
		} else {
			parts[i] = "s:" + v.String()
		}
	}
	return strings.Join(parts, "\x1f")
}
