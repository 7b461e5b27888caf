package dbs3

import (
	"fmt"
	"slices"

	"dbs3/internal/partition"
	"dbs3/internal/relation"
)

// ShardRelation restricts a relation to one node's shard of a cluster: it
// keeps exactly the tuples that hash on col into shard (of shards total) and
// drops the rest, leaving the relation's degree of partitioning and local
// fragment placement untouched — fragments just get sparser. Every node of a
// cluster runs the same creation calls (same seeds) followed by
// ShardRelation with its own shard index, so the union of the nodes' relations
// is exactly the unsharded relation and no tuple lives on two nodes.
//
// A relation CreateWisconsin declared and nothing has generated yet is
// generated here for the shard only, by the generator that settles a whole
// one as the one shard of one: every row is placed by its shard and its key
// before it exists, and only the kept rows, with the texts they refer to,
// are written, into a region of their own. Any other relation — loaded,
// generated already, a join pair's, a shard — is re-homed: its kept tuples
// are copied into a region of their own, and the whole relation is garbage.
// The two give the same shard, byte for byte.
//
// A tuple's shard is the high word of its key's hash scaled to [0, shards)
// by a multiply and a shift. Fragment placement takes the same hash modulo
// the degree; were the shard the hash modulo shards, a factor the two counts
// share would tie shard to fragment and leave some fragments of every node
// empty.
//
// col is the cluster distribution key. Relations joined against each other
// must be sharded on their join attributes (with the same shards count) so
// matching tuples co-locate on one node — the standard shared-nothing
// placement contract; scatter-gather over relations sharded on other columns
// silently loses join matches, exactly as in any distribution-key database.
// For grouped aggregates any distribution column is correct: the coordinator
// re-merges partial groups across nodes.
func (db *Database) ShardRelation(name, col string, shard, shards int) error {
	if shards <= 0 {
		return fmt.Errorf("dbs3: shards must be positive, got %d", shards)
	}
	if shard < 0 || shard >= shards {
		return fmt.Errorf("dbs3: shard %d outside [0,%d)", shard, shards)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if i := db.declared(name); i >= 0 {
		d := db.pending[i]
		c, ok := relation.WisconsinSchema.Index(col)
		if !ok {
			return fmt.Errorf("dbs3: column %q not in schema %s", col, relation.WisconsinSchema)
		}
		p, sizes := d.shard(c, shard, shards)
		db.install(p, d.h, sizes)
		db.pending = slices.Delete(db.pending, i, i+1)
		db.epoch.Add(1)
		return nil
	}
	p, ok := db.rels[name]
	if !ok {
		return fmt.Errorf("dbs3: no relation %q", name)
	}
	c, ok := p.Schema.Index(col)
	if !ok {
		return fmt.Errorf("dbs3: column %q not in schema %s", col, p.Schema)
	}
	// Most of the relation is dropped here, and one surviving tuple or
	// string pins the whole region it was loaded into, so the kept tuples are
	// re-homed into a region of their own and the full relation can be
	// reclaimed.
	cols := []int{c}
	shardP := p.Rehome(func(t relation.Tuple) bool { return shardOf(t, cols, shards) == shard })
	db.install(shardP, db.resolver[name].Part, shardP.FragmentSizes())
	// Sharding is DDL: any cached plan was costed against the full relation.
	db.epoch.Add(1)
	return nil
}

// routeChunk is how many rows shard places per FragmentsOfCols call.
const routeChunk = 256

// shard generates shard of shards of the declared relation, sharded on
// column col, and returns it with its fragment sizes: exactly the relation
// Rehome keeps of the whole one, which is shard 0 of 1. Every row is placed
// before it exists, by col through shardOf (whether it is kept; with one
// shard, every row is) and by its key through the relation's Hash (its
// fragment), a chunk of kept rows per call; the kept rows are
// counting-sorted by fragment, generation order within each, and
// relation.WisconsinRows.Shard writes them.
func (d *wisconsinDef) shard(col, shard, shards int) (*partition.Partitioned, []int) {
	rows := relation.NewWisconsinRows(d.cardinality, d.seed)
	degree := d.h.Degree()
	counts := make([]int, 2*degree)
	sizes, next := counts[:degree:degree], counts[degree:]
	// dest[u2] is row u2's fragment, or -1 if the shard drops it.
	dest := make([]int32, d.cardinality)
	// A chunk's kept rows: their numbers, and their keys as one-value tuples.
	var ids, frags [routeChunk]int32
	var keys [routeChunk]relation.Value
	var run [routeChunk]relation.Tuple
	for j := range run {
		run[j] = keys[j : j+1 : j+1]
	}
	cols := []int{0}
	kept := 0
	for u2 := 0; u2 < len(dest); {
		m := 0
		for ; m < routeChunk && u2 < len(dest); u2++ {
			keys[m] = rows.Value(col, u2)
			if shards > 1 && shardOf(run[m], cols, shards) != shard {
				dest[u2] = -1
				continue
			}
			if col != d.key {
				keys[m] = rows.Value(d.key, u2)
			}
			ids[m] = int32(u2)
			m++
		}
		for j, f := range d.h.FragmentsOfCols(run[:m], cols, frags[:0]) {
			dest[ids[j]] = f
			sizes[f]++
		}
		kept += m
	}
	for f := 1; f < degree; f++ {
		next[f] = next[f-1] + sizes[f-1]
	}
	order := make([]int32, kept)
	for u2, f := range dest {
		if f >= 0 {
			order[next[f]] = int32(u2)
			next[f]++
		}
	}
	region := rows.Shard(order)
	return &partition.Partitioned{Name: d.name, Schema: relation.WisconsinSchema, Key: d.h.Key(),
		Fragments: partition.Cut(region.Tuples(), sizes), Region: region}, sizes
}

// shardOf is the shard of shards that t belongs to when sharded on the key
// at cols.
func shardOf(t relation.Tuple, cols []int, shards int) int {
	return int(t.HashOn(cols) >> 32 * uint64(shards) >> 32)
}
