// Package partition implements the static data partitioning side of DBS3's
// hybrid execution model. Relations are horizontally partitioned by a
// partitioning function into d fragments (the degree of partitioning) and
// fragments are placed on disks round-robin, so d can exceed the number of
// disks (§2: "the degree of partitioning can be independent of the number of
// disks"). The dynamic side — allocating threads independently of d — lives
// in the core package.
package partition

import (
	"fmt"

	"dbs3/internal/relation"
)

// Func maps a tuple to its fragment index in [0, Degree).
type Func interface {
	// Degree returns the number of fragments the function produces.
	Degree() int
	// FragmentOf returns the fragment index for the tuple.
	FragmentOf(t relation.Tuple) int
	// FragmentOfKey returns the fragment index for an extracted key (the
	// partitioning attribute values in Key() order). Dynamic redistribution
	// uses it to route probe tuples to the fragment that holds matching
	// build tuples: co-location requires routing with the build relation's
	// own partitioning function, not an arbitrary hash.
	FragmentOfKey(key []relation.Value) int
	// FragmentOfCols returns the fragment index for the key found at the
	// given column positions of t (in Key() order). It is FragmentOfKey
	// without the projection: the engine's pipelined routing calls it once
	// per redistributed tuple, so it must not allocate.
	FragmentOfCols(t relation.Tuple, cols []int) int
	// Key returns the partitioning attribute names (empty when the function
	// does not depend on tuple content, e.g. round-robin).
	Key() []string
	// Signature identifies the function family and degree (e.g. "hash/200")
	// so the plan validator can detect incompatibly partitioned join
	// operands: two relations co-locate equal keys only if their functions
	// share a signature.
	Signature() string
}

// Hash partitions by hashing one or more attributes, the paper's storage
// model ("Relations are partitioned by hashing on one or more attributes").
type Hash struct {
	cols   []int
	names  []string
	degree int
}

// NewHash builds a hash partitioner over the named key columns.
func NewHash(schema *relation.Schema, key []string, degree int) (*Hash, error) {
	if degree <= 0 {
		return nil, fmt.Errorf("partition: degree must be positive, got %d", degree)
	}
	if len(key) == 0 {
		return nil, fmt.Errorf("partition: hash partitioning needs at least one key column")
	}
	cols := make([]int, len(key))
	for i, name := range key {
		c, ok := schema.Index(name)
		if !ok {
			return nil, fmt.Errorf("partition: key column %q not in schema %s", name, schema)
		}
		cols[i] = c
	}
	return &Hash{cols: cols, names: append([]string(nil), key...), degree: degree}, nil
}

// Degree implements Func.
func (h *Hash) Degree() int { return h.degree }

// Key implements Func.
func (h *Hash) Key() []string { return append([]string(nil), h.names...) }

// FragmentOf implements Func.
func (h *Hash) FragmentOf(t relation.Tuple) int {
	return int(t.HashOn(h.cols) % uint64(h.degree))
}

// FragmentOfKey implements Func. Tuple.Hash folds the key values exactly as
// HashOn folds the key columns, so it agrees with FragmentOfCols.
func (h *Hash) FragmentOfKey(key []relation.Value) int {
	return int(relation.Tuple(key).Hash() % uint64(h.degree))
}

// FragmentOfCols implements Func.
func (h *Hash) FragmentOfCols(t relation.Tuple, cols []int) int {
	return int(t.HashOn(cols) % uint64(h.degree))
}

// Signature implements Func.
func (h *Hash) Signature() string { return fmt.Sprintf("hash/%d", h.degree) }

// Mod partitions an integer key by non-negative modulo. It co-locates equal
// keys like Hash but keeps the key→fragment mapping transparent, which the
// skewed-database generators exploit to place a chosen number of tuples in
// each fragment (tuple placement skew, TPS).
type Mod struct {
	col    int
	name   string
	degree int
	// mask is degree-1 when degree is a power of two, else 0. k&mask equals
	// the non-negative modulo for any signed k (two's complement), replacing
	// the divide in the per-tuple routing path.
	mask int64
}

// NewMod builds a modulo partitioner on the named integer column.
func NewMod(schema *relation.Schema, key string, degree int) (*Mod, error) {
	if degree <= 0 {
		return nil, fmt.Errorf("partition: degree must be positive, got %d", degree)
	}
	c, ok := schema.Index(key)
	if !ok {
		return nil, fmt.Errorf("partition: key column %q not in schema %s", key, schema)
	}
	if schema.Column(c).Type != relation.TInt {
		return nil, fmt.Errorf("partition: modulo partitioning needs an integer column, %q is %s", key, schema.Column(c).Type)
	}
	m := &Mod{col: c, name: key, degree: degree}
	if degree&(degree-1) == 0 {
		m.mask = int64(degree - 1)
	}
	return m, nil
}

// Degree implements Func.
func (m *Mod) Degree() int { return m.degree }

// Key implements Func.
func (m *Mod) Key() []string { return []string{m.name} }

// FragmentOf implements Func.
func (m *Mod) FragmentOf(t relation.Tuple) int {
	return m.fragmentOfInt(t[m.col].AsInt())
}

// FragmentOfKey implements Func.
func (m *Mod) FragmentOfKey(key []relation.Value) int {
	if len(key) != 1 {
		panic(fmt.Sprintf("partition: modulo partitioning takes one key value, got %d", len(key)))
	}
	return m.fragmentOfInt(key[0].AsInt())
}

func (m *Mod) fragmentOfInt(k int64) int {
	if m.mask != 0 {
		return int(k & m.mask)
	}
	v := k % int64(m.degree)
	if v < 0 {
		v += int64(m.degree)
	}
	return int(v)
}

// FragmentOfCols implements Func.
func (m *Mod) FragmentOfCols(t relation.Tuple, cols []int) int {
	if len(cols) != 1 {
		panic(fmt.Sprintf("partition: modulo partitioning takes one key column, got %d", len(cols)))
	}
	return m.fragmentOfInt(t[cols[0]].AsInt())
}

// Signature implements Func.
func (m *Mod) Signature() string { return fmt.Sprintf("mod/%d", m.degree) }

// Range partitions an integer key by split points: fragment i holds keys in
// [Bounds[i-1], Bounds[i]), with open ends. Range placement (used by Bubba
// and Gamma alongside hashing) co-locates equal keys like Hash but also
// keeps key order, which matters for ordered scans and non-equi predicates.
type Range struct {
	col    int
	name   string
	bounds []int64
}

// NewRange builds a range partitioner on the named integer column with the
// given ascending split points; degree = len(bounds) + 1.
func NewRange(schema *relation.Schema, key string, bounds []int64) (*Range, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("partition: range partitioning needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("partition: range bounds must be strictly ascending, got %v", bounds)
		}
	}
	c, ok := schema.Index(key)
	if !ok {
		return nil, fmt.Errorf("partition: key column %q not in schema %s", key, schema)
	}
	if schema.Column(c).Type != relation.TInt {
		return nil, fmt.Errorf("partition: range partitioning needs an integer column, %q is %s", key, schema.Column(c).Type)
	}
	return &Range{col: c, name: key, bounds: append([]int64(nil), bounds...)}, nil
}

// Degree implements Func.
func (r *Range) Degree() int { return len(r.bounds) + 1 }

// Key implements Func.
func (r *Range) Key() []string { return []string{r.name} }

// FragmentOf implements Func.
func (r *Range) FragmentOf(t relation.Tuple) int {
	return r.fragmentOfInt(t[r.col].AsInt())
}

// FragmentOfKey implements Func.
func (r *Range) FragmentOfKey(key []relation.Value) int {
	if len(key) != 1 {
		panic(fmt.Sprintf("partition: range partitioning takes one key value, got %d", len(key)))
	}
	return r.fragmentOfInt(key[0].AsInt())
}

func (r *Range) fragmentOfInt(k int64) int {
	// Binary search for the first bound > k.
	lo, hi := 0, len(r.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.bounds[mid] <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// FragmentOfCols implements Func.
func (r *Range) FragmentOfCols(t relation.Tuple, cols []int) int {
	if len(cols) != 1 {
		panic(fmt.Sprintf("partition: range partitioning takes one key column, got %d", len(cols)))
	}
	return r.fragmentOfInt(t[cols[0]].AsInt())
}

// Signature implements Func. Two range partitionings co-locate keys only
// when their split points agree, so the bounds are part of the signature.
func (r *Range) Signature() string { return fmt.Sprintf("range%v", r.bounds) }

// RoundRobin spreads tuples page-less round-robin, the XPRS/Oracle-style
// placement the paper contrasts with ("relations are not stored using a
// parallel storage model but split, page by page, among all the disks").
// It does not co-locate keys, so plans over round-robin relations must
// redistribute before a partitioned join.
type RoundRobin struct {
	degree int
	next   int
}

// NewRoundRobin builds a round-robin partitioner with the given degree.
func NewRoundRobin(degree int) (*RoundRobin, error) {
	if degree <= 0 {
		return nil, fmt.Errorf("partition: degree must be positive, got %d", degree)
	}
	return &RoundRobin{degree: degree}, nil
}

// Degree implements Func.
func (r *RoundRobin) Degree() int { return r.degree }

// Key implements Func. Round-robin has no partitioning key.
func (r *RoundRobin) Key() []string { return nil }

// FragmentOf implements Func. RoundRobin is stateful: successive calls cycle
// through fragments, so a single goroutine must own the partitioning pass.
func (r *RoundRobin) FragmentOf(relation.Tuple) int {
	f := r.next
	r.next = (r.next + 1) % r.degree
	return f
}

// FragmentOfKey implements Func. Round-robin placement does not co-locate
// keys, so key-based routing over it is a plan error caught at validation;
// reaching this method is a bug.
func (r *RoundRobin) FragmentOfKey([]relation.Value) int {
	panic("partition: round-robin placement cannot route by key")
}

// FragmentOfCols implements Func. Like FragmentOfKey, reaching it is a bug.
func (r *RoundRobin) FragmentOfCols(relation.Tuple, []int) int {
	panic("partition: round-robin placement cannot route by key")
}

// Signature implements Func.
func (r *RoundRobin) Signature() string { return fmt.Sprintf("rr/%d", r.degree) }

// BatchFunc is an optional Func extension for the vectorized data plane: a
// partitioner implementing it routes a whole run of tuples in one call,
// appending one destination per tuple to dst. Results are identical to
// calling FragmentOfCols per tuple — batch routing is an amortization, not a
// different placement.
type BatchFunc interface {
	Func
	FragmentsOfCols(ts []relation.Tuple, cols []int, dst []int32) []int32
}

// FragmentsOfCols implements BatchFunc.
func (h *Hash) FragmentsOfCols(ts []relation.Tuple, cols []int, dst []int32) []int32 {
	degree := uint64(h.degree)
	for _, t := range ts {
		dst = append(dst, int32(t.HashOn(cols)%degree))
	}
	return dst
}

// FragmentsOfCols implements BatchFunc.
func (m *Mod) FragmentsOfCols(ts []relation.Tuple, cols []int, dst []int32) []int32 {
	if len(cols) != 1 {
		panic(fmt.Sprintf("partition: modulo partitioning takes one key column, got %d", len(cols)))
	}
	c := cols[0]
	if mask := m.mask; mask != 0 {
		for _, t := range ts {
			dst = append(dst, int32(t[c].AsInt()&mask))
		}
		return dst
	}
	degree := int64(m.degree)
	for _, t := range ts {
		v := t[c].AsInt() % degree
		if v < 0 {
			v += degree
		}
		dst = append(dst, int32(v))
	}
	return dst
}
