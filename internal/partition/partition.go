// Package partition implements the static data partitioning side of DBS3's
// hybrid execution model. Relations are horizontally partitioned by a
// partitioning function into d fragments (the degree of partitioning), each
// relation's fragments cut from one region of its own. The dynamic side —
// allocating threads independently of d — lives in the core package.
package partition

import (
	"fmt"

	"dbs3/internal/relation"
)

// Func places tuples in fragments [0, Degree). It has one placement method,
// over a run of tuples, and every placement goes through it: Partition and
// Generate when a loader partitions a relation, ShardRelation when a node
// keeps its shard, and the engine's routing of every hash-redistributed run.
// A pipelined join routes its probe tuples with the build relation's own
// function, so they land on the co-located instance.
type Func interface {
	// Degree returns the number of fragments the function produces.
	Degree() int
	// FragmentsOfCols appends to dst the fragment index of each tuple of ts,
	// for the key found at the given column positions (in Key() order). The
	// engine calls it once per emitted run of redistributed tuples, so it must
	// not allocate beyond growing dst.
	FragmentsOfCols(ts []relation.Tuple, cols []int, dst []int32) []int32
	// Key returns the partitioning attribute names.
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
	for _, name := range key {
		if _, ok := schema.Index(name); !ok {
			return nil, fmt.Errorf("partition: key column %q not in schema %s", name, schema)
		}
	}
	return &Hash{names: append([]string(nil), key...), degree: degree}, nil
}

// Degree implements Func.
func (h *Hash) Degree() int { return h.degree }

// Key implements Func.
func (h *Hash) Key() []string { return append([]string(nil), h.names...) }

// FragmentsOfCols implements Func.
func (h *Hash) FragmentsOfCols(ts []relation.Tuple, cols []int, dst []int32) []int32 {
	degree := uint64(h.degree)
	for _, t := range ts {
		dst = append(dst, int32(t.HashOn(cols)%degree))
	}
	return dst
}

// Signature implements Func.
func (h *Hash) Signature() string { return fmt.Sprintf("hash/%d", h.degree) }

// Mod partitions an integer key by non-negative modulo. It co-locates equal
// keys like Hash but keeps the key→fragment mapping transparent, which the
// skewed-database generators exploit to place a chosen number of tuples in
// each fragment (tuple placement skew, TPS).
type Mod struct {
	name   string
	degree int
	// mask is degree-1 when degree is a power of two, else 0. k&mask equals
	// the non-negative modulo for any signed k (two's complement), replacing
	// the divide in the routing path.
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
	m := &Mod{name: key, degree: degree}
	if degree&(degree-1) == 0 {
		m.mask = int64(degree - 1)
	}
	return m, nil
}

// Degree implements Func.
func (m *Mod) Degree() int { return m.degree }

// Key implements Func.
func (m *Mod) Key() []string { return []string{m.name} }

// FragmentsOfCols implements Func.
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

// Signature implements Func.
func (m *Mod) Signature() string { return fmt.Sprintf("mod/%d", m.degree) }
