package partition

import (
	"fmt"

	"dbs3/internal/relation"
)

// Partitioned is a statically partitioned relation: the unit the Lera-par
// extended view parallelizes over. Fragment i feeds operator instance i.
type Partitioned struct {
	Name   string
	Schema *relation.Schema
	// Key holds the partitioning attribute names; empty means the placement
	// does not co-locate keys (round-robin).
	Key []string
	// Fragments holds the tuples of each fragment.
	Fragments [][]relation.Tuple
	// Disk[i] is the disk holding fragment i (round-robin placement).
	Disk []int
}

// Partition splits r into fragments with f and places them on numDisks disks
// round-robin, mirroring the paper's storage model ("relation fragments are
// distributed onto disks in a round-robin fashion"). It is a two-pass
// counting partition: f is called exactly once per tuple, in relation order
// (a stateful Func like RoundRobin depends on that), its answers are kept in
// an []int32, and the fragments are then carved exactly-sized out of one
// []Tuple — O(fragments) allocations and no append slack. Each fragment is
// capped, so appending to one reallocates it rather than overwrite the next.
func Partition(r *relation.Relation, f Func, numDisks int) (*Partitioned, error) {
	if numDisks <= 0 {
		return nil, fmt.Errorf("partition: need at least one disk, got %d", numDisks)
	}
	d := f.Degree()
	p := &Partitioned{
		Name:      r.Name,
		Schema:    r.Schema,
		Key:       f.Key(),
		Fragments: make([][]relation.Tuple, d),
		Disk:      make([]int, d),
	}
	for i := 0; i < d; i++ {
		p.Disk[i] = i % numDisks
	}
	dest := make([]int32, len(r.Tuples))
	sizes := make([]int, d)
	for i, t := range r.Tuples {
		fr := f.FragmentOf(t)
		if fr < 0 || fr >= d {
			return nil, fmt.Errorf("partition: function returned fragment %d outside [0,%d)", fr, d)
		}
		dest[i] = int32(fr)
		sizes[fr]++
	}
	all := make([]relation.Tuple, len(r.Tuples))
	off := 0
	for i, n := range sizes {
		p.Fragments[i] = all[off : off : off+n]
		off += n
	}
	for i, t := range r.Tuples {
		p.Fragments[dest[i]] = append(p.Fragments[dest[i]], t)
	}
	return p, nil
}

// FromFragments builds a Partitioned directly from pre-split fragments; the
// skewed database generators use it to impose exact fragment cardinalities.
func FromFragments(name string, schema *relation.Schema, key []string, fragments [][]relation.Tuple, numDisks int) (*Partitioned, error) {
	if numDisks <= 0 {
		return nil, fmt.Errorf("partition: need at least one disk, got %d", numDisks)
	}
	if len(fragments) == 0 {
		return nil, fmt.Errorf("partition: need at least one fragment")
	}
	p := &Partitioned{Name: name, Schema: schema, Key: append([]string(nil), key...), Fragments: fragments, Disk: make([]int, len(fragments))}
	for i := range fragments {
		p.Disk[i] = i % numDisks
	}
	return p, nil
}

// Degree returns the degree of partitioning.
func (p *Partitioned) Degree() int { return len(p.Fragments) }

// Cardinality returns the total number of tuples across fragments.
func (p *Partitioned) Cardinality() int {
	n := 0
	for _, f := range p.Fragments {
		n += len(f)
	}
	return n
}

// FragmentSizes returns the per-fragment cardinalities, the quantity the
// paper's skew analysis is built on.
func (p *Partitioned) FragmentSizes() []int {
	s := make([]int, len(p.Fragments))
	for i, f := range p.Fragments {
		s[i] = len(f)
	}
	return s
}

// Union flattens the fragments back into a single relation (fragment order,
// then intra-fragment order). Tests use it to check partitioning is lossless.
func (p *Partitioned) Union() *relation.Relation {
	r := relation.New(p.Name, p.Schema)
	for _, f := range p.Fragments {
		r.Tuples = append(r.Tuples, f...)
	}
	return r
}

// String summarizes the partitioned relation.
func (p *Partitioned) String() string {
	return fmt.Sprintf("%s [%d tuples, %d fragments, key %v]", p.Name, p.Cardinality(), p.Degree(), p.Key)
}
