package dbs3

import (
	"fmt"

	"dbs3/internal/partition"
	"dbs3/internal/relation"
	"dbs3/internal/workload"
)

// ShardRelation restricts a relation to one node's shard of a cluster: it
// keeps exactly the tuples that hash on col into shard (of shards total) and
// drops the rest, leaving the relation's degree of partitioning and local
// fragment placement untouched — fragments just get sparser. Every node of a
// cluster runs the same creation calls (same seeds) followed by
// ShardRelation with its own shard index, so the union of the nodes' relations
// is exactly the unsharded relation and no tuple lives on two nodes.
//
// A relation CreateWisconsin or CreateJoinPair declared and nothing has
// generated yet only has its shard recorded here: the first read that names
// it generates the shard alone, every row placed by its shard and fragment
// before it exists and only the kept rows, with the strings they refer to,
// written into a region of their own. Any other relation — loaded, generated
// already, a shard — is re-homed: its kept tuples are copied into a region
// of their own, and the whole relation is garbage. The two give the same
// shard, byte for byte.
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
		e := db.pending[i]
		c, ok := e.decl.schema().Index(col)
		if !ok {
			return fmt.Errorf("dbs3: column %q not in schema %s", col, e.decl.schema())
		}
		if e.shards == 1 {
			db.pending[i] = pendingRel{e.decl, c, shard, shards}
			db.epoch.Add(1)
			return nil
		}
		// A shard of a recorded shard: generate that one, then re-home it.
		db.mu.Unlock()
		db.lookup(name)
		db.mu.Lock()
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
	db.install(placed{shardP, db.resolver[name].Part})
	// Sharding is DDL: any cached plan was costed against the full relation.
	db.epoch.Add(1)
	return nil
}

// shard generates shard of shards of the declared relation, sharded on
// column col: exactly the relation Rehome keeps of the whole one, which is
// shard 0 of 1. Every row is placed before it exists by the hash of col as a
// one-column key, which gives both its shard and, when col is the relation's
// key, its fragment; its fragment comes from a second hash only when the two
// columns differ. The rows are placed a chunk at a time:
// relation.WisconsinRows.KeyHashes fills a chunk of col's hashes, and a
// second chunk of the key's when the columns differ, in one loop each, and
// one loop places the chunk's rows. The two chunks take 2 KiB of stack, which
// the goroutine a settle runs on (an HTTP handler's, on a served node) has
// room for. A dropped row goes to a bucket past the last fragment, so placing
// a row takes no branch on whether it is kept; the kept rows are
// counting-sorted by fragment, generation order within each, and
// relation.WisconsinRows.Shard writes them.
func (d *wisconsinDef) shard(col, shard, shards int) placed {
	rows := relation.NewWisconsinRows(d.cardinality, d.seed)
	degree := d.h.Degree()
	// Bucket degree holds the dropped rows.
	counts := make([]int, 2*(degree+1))
	sizes, next := counts[:degree+1], counts[degree+1:]
	// dest holds each row's fragment and, after it, order the kept rows in
	// fragment order: one allocation, sized as if every row were kept.
	buf := make([]int32, 2*d.cardinality+1)
	dest := buf[:d.cardinality]
	const chunk = 128
	var colHashes, keyHashes [chunk]uint64
	for lo := 0; lo < len(dest); lo += chunk {
		hs := colHashes[:min(chunk, len(dest)-lo)]
		rows.KeyHashes(col, lo, hs)
		fs := hs
		if col != d.key {
			fs = keyHashes[:len(hs)]
			rows.KeyHashes(d.key, lo, fs)
		}
		for k, h := range hs {
			keep := int32(oneIf(shardOfHash(h, shards) == shard))
			// f is the row's fragment if kept, else degree: keep picks one
			// of the two by arithmetic, not by a branch taken at random.
			f := keep*d.h.FragmentOf(fs[k]) + (1-keep)*int32(degree)
			dest[lo+k] = f
			sizes[f]++
		}
	}
	for f := 1; f <= degree; f++ {
		next[f] = next[f-1] + sizes[f-1]
	}
	kept := next[degree]
	// The dropped rows all land in the one slot past the kept ones.
	order := buf[d.cardinality : d.cardinality+kept+1]
	for u2, f := range dest {
		order[next[f]] = int32(u2)
		next[f] += oneIf(f != int32(degree))
	}
	region := rows.Shard(order[:kept])
	sizes = sizes[:degree:degree]
	return placed{&partition.Partitioned{Name: d.name, Schema: relation.WisconsinSchema, Key: d.h.Key(),
		Fragments: partition.Cut(region.Tuples(), sizes), Region: region}, d.h}
}

// shard generates shard of shards of the declared member, sharded on column
// col (k, id or pad): exactly the member Rehome keeps of the settled one.
// The one shard of one keeps every row and hashes none. Otherwise, sharded
// on k or id, a row is kept by its value's bit in the integers the shard
// keeps (keeps); on pad, which is one constant per member, every row
// is kept or none. relation.JoinRows.Shard writes the kept rows in the
// member's fragments: by k for A and B, as they are generated, and by id for
// Br.
func (m pairMember) shard(col, shard, shards int) placed {
	p := m.pair
	a, b := workload.JoinPairRows(p.aCard, p.bCard, p.degree, p.theta)
	rows, n := b, p.bCard
	if m.member == 0 {
		rows, n = a, p.aCard
	}
	const k, id = 0, 1
	on := col
	var keep []uint64 // nil keeps every row
	switch {
	case shards == 1:
	case col == k:
		keep = keeps(p.bCard, shard, shards) // A's keys are B's
	case col == id:
		keep = keeps(n, shard, shards)
	default:
		on, keep = id, make([]uint64, (n+63)/64)
		if shardOfHash(relation.Str(rows.Pad).KeyHash(), shards) == shard {
			for i := range keep {
				keep[i] = ^uint64(0)
			}
		}
	}
	region, sizes := rows.Shard(on, keep, m.member == 2)
	// A and B are placed on k, Br on id.
	part := p.onK
	if m.member == 2 {
		part = p.onID
	}
	return placed{&partition.Partitioned{Name: m.relName(), Schema: workload.JoinSchema, Key: part.Key(),
		Fragments: partition.Cut(region.Tuples(), sizes), Region: region}, part}
}

// keeps returns a bitmap in which bit v is set when shard of shards keeps
// the integer v as a one-column key, for every v below n at least. Each
// member sharded on k or id hashes its own, so a node whose statements name
// all three hashes B's keys (A's keys, Br's ids) up to three times.
func keeps(n, shard, shards int) []uint64 {
	bits := make([]uint64, (n+63)/64)
	for v := range 64 * len(bits) {
		bits[v>>6] |= uint64(oneIf(shardOfHash(relation.Int(int64(v)).KeyHash(), shards) == shard)) << (v & 63)
	}
	return bits
}

// shardOf is the shard of shards that t belongs to when sharded on the key
// at cols.
func shardOf(t relation.Tuple, cols []int, shards int) int {
	return shardOfHash(t.HashOn(cols), shards)
}

// shardOfHash is the shard of shards that a tuple belongs to when its key
// hashes to h: the hash's high word scaled to [0, shards).
func shardOfHash(h uint64, shards int) int {
	return int(h >> 32 * uint64(shards) >> 32)
}

// oneIf is 1 if b holds, else 0, without a branch.
func oneIf(b bool) int {
	if b {
		return 1
	}
	return 0
}
