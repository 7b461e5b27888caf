package relation

import "strings"

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
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, c := range cols {
		h ^= t[c].Hash()
		h *= prime
	}
	return h
}

// Hash is HashOn over every column in order, without the index slice; hash
// partitioners route an already-extracted key with it.
func (t Tuple) Hash() uint64 {
	h := uint64(fnvOffset64)
	for _, v := range t {
		h ^= v.Hash()
		h *= fnvPrime64
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

// Project returns a new, individually allocated tuple containing only the
// given column positions. Operators use Slab.Project; this one remains as the
// reference in tests.
func (t Tuple) Project(cols []int) Tuple {
	out := make(Tuple, len(cols))
	for i, c := range cols {
		out[i] = t[c]
	}
	return out
}

// Concat returns a new, individually allocated tuple with the values of t
// followed by those of o. Operators use Slab.Concat; this one remains for
// the frozen baselines and as the reference in tests.
func (t Tuple) Concat(o Tuple) Tuple {
	out := make(Tuple, 0, len(t)+len(o))
	out = append(out, t...)
	out = append(out, o...)
	return out
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
