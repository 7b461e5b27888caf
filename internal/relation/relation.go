package relation

import (
	"fmt"
	"sort"
)

// Relation is an in-memory relation: a named schema plus a tuple slice. The
// paper runs every experiment with relations cached in main memory (the KSR1
// at INRIA had a single disk), and we follow the same model; the storage
// package adds the disk/buffer substrate around this type.
type Relation struct {
	Name   string
	Schema *Schema
	Tuples []Tuple
}

// New creates an empty relation with the given name and schema.
func New(name string, schema *Schema) *Relation {
	return &Relation{Name: name, Schema: schema}
}

// Append adds tuples to the relation. The tuples must match the schema
// arity; type agreement is the caller's responsibility (generators and
// operators always produce schema-conforming tuples).
func (r *Relation) Append(ts ...Tuple) error {
	for _, t := range ts {
		if len(t) != r.Schema.Len() {
			return fmt.Errorf("relation %s: tuple arity %d != schema arity %d", r.Name, len(t), r.Schema.Len())
		}
	}
	r.Tuples = append(r.Tuples, ts...)
	return nil
}

// MustAppend is Append that panics on arity mismatch.
func (r *Relation) MustAppend(ts ...Tuple) {
	if err := r.Append(ts...); err != nil {
		panic(err)
	}
}

// Cardinality returns the number of tuples.
func (r *Relation) Cardinality() int { return len(r.Tuples) }

// Clone returns a deep-enough copy: the tuple slice is copied but the
// (immutable) tuples and schema are shared.
func (r *Relation) Clone() *Relation {
	return &Relation{Name: r.Name, Schema: r.Schema, Tuples: append([]Tuple(nil), r.Tuples...)}
}

// EqualMultiset reports whether two relations contain the same tuples with
// the same multiplicities, regardless of order. Parallel execution is
// permitted to reorder results, so all correctness tests compare multisets.
func (r *Relation) EqualMultiset(o *Relation) bool {
	if len(r.Tuples) != len(o.Tuples) {
		return false
	}
	counts := make(map[string]int, len(r.Tuples))
	for _, t := range r.Tuples {
		counts[t.Key()]++
	}
	for _, t := range o.Tuples {
		k := t.Key()
		counts[k]--
		if counts[k] < 0 {
			return false
		}
	}
	return true
}

// SortByKey sorts tuples by their canonical key; handy for deterministic
// output in examples and golden tests.
func (r *Relation) SortByKey() {
	sort.Slice(r.Tuples, func(i, j int) bool { return r.Tuples[i].Key() < r.Tuples[j].Key() })
}

// String summarizes the relation.
func (r *Relation) String() string {
	return fmt.Sprintf("%s%s [%d tuples]", r.Name, r.Schema, len(r.Tuples))
}
