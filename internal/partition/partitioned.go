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
// an []int32, and the tuples are then placed in one exactly-sized []Tuple
// the fragments are Cut from.
func Partition(r *relation.Relation, f Func, numDisks int) (*Partitioned, error) {
	if numDisks <= 0 {
		return nil, fmt.Errorf("partition: need at least one disk, got %d", numDisks)
	}
	d := f.Degree()
	p := &Partitioned{
		Name:   r.Name,
		Schema: r.Schema,
		Key:    f.Key(),
		Disk:   make([]int, d),
	}
	for i := 0; i < d; i++ {
		p.Disk[i] = i % numDisks
	}
	dest, sizes, err := destinations(len(r.Tuples), d, func(i int) int { return f.FragmentOf(r.Tuples[i]) })
	if err != nil {
		return nil, err
	}
	all := make([]relation.Tuple, len(r.Tuples))
	next := starts(sizes)
	for i, t := range r.Tuples {
		all[next[dest[i]]] = t
		next[dest[i]]++
	}
	p.Fragments = Cut(all, sizes)
	return p, nil
}

// Generate builds a partitioned relation of n rows straight from a row
// generator, with no intermediate Relation. keyOf(i) is row i's value of f's
// single partitioning attribute, which places the row before it exists; the
// rows are then generated fragment by fragment into one region (strBytes is
// what their strings will take of it in total; row(region, i) appends row i),
// so each fragment's tuples and values lie contiguous in memory and the
// collector has nothing to scan. Where the strings lie is the generator's
// choice: Wisconsin rows refer to one text table in value order, which a
// fragment's rows read from scattered places. Within a fragment rows keep
// their generation order, so the fragments are exactly those Partition would
// have built.
func Generate(name string, schema *relation.Schema, f Func, numDisks, n, strBytes int,
	keyOf func(i int) relation.Value, row func(region *relation.Region, i int)) (*Partitioned, error) {
	p, _, err := generate(name, schema, f, numDisks, n, strBytes, keyOf, row)
	return p, err
}

// generate is Generate; it also returns the region, for tests to Check.
func generate(name string, schema *relation.Schema, f Func, numDisks, n, strBytes int,
	keyOf func(i int) relation.Value, row func(region *relation.Region, i int)) (*Partitioned, *relation.Region, error) {
	d := f.Degree()
	key := make([]relation.Value, 1)
	dest, sizes, err := destinations(n, d, func(i int) int {
		key[0] = keyOf(i)
		return f.FragmentOfKey(key)
	})
	if err != nil {
		return nil, nil, err
	}
	// Stable counting sort of the row numbers by fragment.
	next := starts(sizes)
	order := make([]int32, n)
	for i, fr := range dest {
		order[next[fr]] = int32(i)
		next[fr]++
	}
	region := relation.NewRegion(n, n*schema.Len(), strBytes)
	for _, i := range order {
		row(region, int(i))
	}
	p, err := FromFragments(name, schema, f.Key(), Cut(region.Tuples(), sizes), numDisks)
	return p, region, err
}

// destinations asks place for the fragment of each of n rows — once each, in
// row order — and returns the answers with the fragment sizes they add up to.
func destinations(n, d int, place func(i int) int) (dest []int32, sizes []int, err error) {
	dest = make([]int32, n)
	sizes = make([]int, d)
	for i := range dest {
		fr := place(i)
		if fr < 0 || fr >= d {
			return nil, nil, fmt.Errorf("partition: function returned fragment %d outside [0,%d)", fr, d)
		}
		dest[i] = int32(fr)
		sizes[fr]++
	}
	return dest, sizes, nil
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
