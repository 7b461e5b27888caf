package dbs3

import (
	"fmt"

	"dbs3/internal/partition"
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
	h, err := partition.NewHash(p.Schema, []string{col}, shards)
	if err != nil {
		return err
	}
	// Most of the relation is dropped here, and a slab tuple pins its whole
	// chunk: the kept tuples are copied into a fresh exactly-sized slab (and
	// one exactly-sized []Tuple) so the full relation can be reclaimed.
	tuples, values := 0, 0
	for _, frag := range p.Fragments {
		for _, t := range frag {
			if h.FragmentOf(t) == shard {
				tuples++
				values += len(t)
			}
		}
	}
	var slab relation.Slab
	slab.Reserve(values)
	all := make([]relation.Tuple, 0, tuples)
	kept := make([][]relation.Tuple, len(p.Fragments))
	for i, frag := range p.Fragments {
		start := len(all)
		for _, t := range frag {
			if h.FragmentOf(t) == shard {
				all = append(all, slab.Copy(t))
			}
		}
		kept[i] = all[start:len(all):len(all)]
	}
	shardP := &partition.Partitioned{
		Name:      p.Name,
		Schema:    p.Schema,
		Key:       p.Key,
		Fragments: kept,
		Disk:      p.Disk,
	}
	db.rels[name] = shardP
	ri := db.resolver[name]
	ri.FragSizes = shardP.FragmentSizes()
	db.resolver[name] = ri
	// Sharding is DDL: any cached plan was costed against the full relation.
	db.epoch.Add(1)
	return nil
}
