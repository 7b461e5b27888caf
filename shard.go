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
	_, err := db.shardRelation(name, col, shard, shards)
	return err
}

// shardRelation is ShardRelation; it also returns the region the shard lives
// in, for tests to Check.
func (db *Database) shardRelation(name, col string, shard, shards int) (*relation.Region, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("dbs3: shards must be positive, got %d", shards)
	}
	if shard < 0 || shard >= shards {
		return nil, fmt.Errorf("dbs3: shard %d outside [0,%d)", shard, shards)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	p, ok := db.rels[name]
	if !ok {
		return nil, fmt.Errorf("dbs3: no relation %q", name)
	}
	h, err := partition.NewHash(p.Schema, []string{col}, shards)
	if err != nil {
		return nil, err
	}
	// Most of the relation is dropped here, and one surviving tuple or
	// string pins the whole region it was loaded into: the kept tuples are
	// re-homed, strings included, into a fresh exactly-sized region so the
	// full relation can be reclaimed. Each tuple is hashed once; the second
	// pass reads the answers back from keep.
	var strCols []int
	for c := 0; c < p.Schema.Len(); c++ {
		if p.Schema.Column(c).Type == relation.TString {
			strCols = append(strCols, c)
		}
	}
	keep := make([]bool, p.Cardinality())
	sizes := make([]int, len(p.Fragments))
	tuples, values, strBytes, n := 0, 0, 0, 0
	for i, frag := range p.Fragments {
		for _, t := range frag {
			if h.FragmentOf(t) == shard {
				keep[n] = true
				sizes[i]++
				tuples++
				values += len(t)
				for _, c := range strCols {
					strBytes += len(t[c].AsString())
				}
			}
			n++
		}
	}
	region := relation.NewRegion(tuples, values, strBytes)
	n = 0
	for _, frag := range p.Fragments {
		for _, t := range frag {
			if keep[n] {
				region.Rehome(t)
			}
			n++
		}
	}
	shardP := &partition.Partitioned{
		Name:      p.Name,
		Schema:    p.Schema,
		Key:       p.Key,
		Fragments: partition.Cut(region.Tuples(), sizes),
		Disk:      p.Disk,
	}
	db.rels[name] = shardP
	ri := db.resolver[name]
	ri.FragSizes = shardP.FragmentSizes()
	db.resolver[name] = ri
	// Sharding is DDL: any cached plan was costed against the full relation.
	db.epoch.Add(1)
	return region, nil
}
