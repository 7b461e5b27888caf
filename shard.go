package dbs3

import (
	"fmt"

	"dbs3/internal/relation"
)

// ShardRelation restricts a registered relation to one node's shard of a
// cluster: it keeps exactly the tuples that hash on col into shard (of
// shards total) and drops the rest, leaving the relation's degree of
// partitioning and local fragment placement untouched — fragments just get
// sparser. Every node of a cluster runs the same creation calls (same seeds)
// followed by ShardRelation with its own shard index, so the union of the
// nodes' relations is exactly the unsharded relation and no tuple lives on
// two nodes.
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
	db.rels[name] = shardP
	ri := db.resolver[name]
	ri.FragSizes = shardP.FragmentSizes()
	db.resolver[name] = ri
	// Sharding is DDL: any cached plan was costed against the full relation.
	db.epoch.Add(1)
	return nil
}

// shardOf is the shard of shards that t belongs to when sharded on the key
// at cols.
func shardOf(t relation.Tuple, cols []int, shards int) int {
	return int(t.HashOn(cols) >> 32 * uint64(shards) >> 32)
}
