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
	// Key holds the partitioning attribute names; empty for a
	// materialization fed by instance-aligned edges, whose placement
	// follows its producer's fragments rather than a key.
	Key []string
	// Fragments holds the tuples of each fragment.
	Fragments [][]relation.Tuple
	// Region is the region the fragments were cut from (the facade's
	// generator of a declared relation, Rehome, the join-pair loader), or
	// nil. Rehome reads it to keep the sharing of string bytes the region
	// had.
	Region *relation.Region
}

// Partition splits r into fragments with f, the paper's storage model: a
// base relation is hash-partitioned once, before any query runs. It is a
// two-pass counting partition: one FragmentsOfCols call routes every tuple at
// the column positions of f's key, the tuples are placed fragment-major, and
// Rehome then copies them, strings included, into one exactly sized region
// the fragments are cut from, so nothing of r stays reachable through them.
// numDisks is accepted and ignored: nothing maps fragments to disks, and the
// benchmark module under bench/ still passes it.
func Partition(r *relation.Relation, f Func, numDisks int) (*Partitioned, error) {
	key := f.Key()
	cols := make([]int, len(key))
	for i, name := range key {
		c, ok := r.Schema.Index(name)
		if !ok {
			return nil, fmt.Errorf("partition: key column %q not in schema %s", name, r.Schema)
		}
		cols[i] = c
	}
	dest := f.FragmentsOfCols(r.Tuples, cols, make([]int32, 0, len(r.Tuples)))
	sizes, err := fragmentSizes(dest, f.Degree())
	if err != nil {
		return nil, err
	}
	all := make([]relation.Tuple, len(r.Tuples))
	next := starts(sizes)
	for i, t := range r.Tuples {
		all[next[dest[i]]] = t
		next[dest[i]]++
	}
	placed := &Partitioned{Name: r.Name, Schema: r.Schema, Key: key, Fragments: Cut(all, sizes)}
	return placed.Rehome(nil), nil
}

// Rehome returns p with the tuples keep accepts copied, fragment by fragment
// and strings included, into one exactly sized region, and its fragments cut
// from it: nothing of where the tuples lived stays reachable through the
// result. Every base relation a loader registers is cut from such a region
// (see relation.Region), and this is the one loop that copies into one. A nil
// keep keeps every tuple; keep is called once per tuple, in fragment order,
// and a kept tuple stays in the fragment it was in, so the degree never
// changes. String bytes the kept tuples shared in p.Region are copied once
// and stay shared (see relation.Compaction); any other string is copied per
// value. p is not modified.
func (p *Partitioned) Rehome(keep func(relation.Tuple) bool) *Partitioned {
	c := relation.NewCompaction(p.Region, p.Schema)
	sizes := make([]int, len(p.Fragments))
	kept := make([]bool, 0, p.Cardinality()) // per tuple, fragment-major
	tuples := 0
	for i, frag := range p.Fragments {
		for _, t := range frag {
			k := keep == nil || keep(t)
			kept = append(kept, k)
			if k {
				sizes[i]++
				c.Keep(t)
			}
		}
		tuples += sizes[i]
	}
	region := c.Region(tuples, tuples*p.Schema.Len())
	n := 0
	for _, frag := range p.Fragments {
		for _, t := range frag {
			if kept[n] {
				c.Rehome(t)
			}
			n++
		}
	}
	return &Partitioned{Name: p.Name, Schema: p.Schema, Key: p.Key, Fragments: Cut(region.Tuples(), sizes), Region: region}
}

// fragmentSizes checks that a function's answers are fragments in [0,d), and
// counts the rows it placed in each.
func fragmentSizes(dest []int32, d int) ([]int, error) {
	sizes := make([]int, d)
	for _, fr := range dest {
		if fr < 0 || int(fr) >= d {
			return nil, fmt.Errorf("partition: function returned fragment %d outside [0,%d)", fr, d)
		}
		sizes[fr]++
	}
	return sizes, nil
}

// starts returns where each fragment begins when fragments of the given
// sizes are laid out one after the other.
func starts(sizes []int) []int {
	next := make([]int, len(sizes))
	for i := 1; i < len(sizes); i++ {
		next[i] = next[i-1] + sizes[i-1]
	}
	return next
}

// Cut splits all, a relation's tuples in fragment-major order, into
// consecutive fragments of the given sizes: one allocation however many
// fragments, and no append slack. Each fragment is capped, so appending to it
// reallocates it rather than overwrite the next. The loaders that fill a
// relation.Region cut its Tuples with it.
func Cut(all []relation.Tuple, sizes []int) [][]relation.Tuple {
	frags := make([][]relation.Tuple, len(sizes))
	off := 0
	for i, n := range sizes {
		frags[i] = all[off : off+n : off+n]
		off += n
	}
	return frags
}

// FromFragments builds a Partitioned directly from pre-split fragments; the
// skewed database generators use it to impose exact fragment cardinalities.
// numDisks is accepted and ignored, as by Partition.
func FromFragments(name string, schema *relation.Schema, key []string, fragments [][]relation.Tuple, numDisks int) (*Partitioned, error) {
	if len(fragments) == 0 {
		return nil, fmt.Errorf("partition: need at least one fragment")
	}
	return &Partitioned{Name: name, Schema: schema, Key: append([]string(nil), key...), Fragments: fragments}, nil
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
