package dbs3

import (
	"sort"
	"sync/atomic"
)

// Pending names the declared relations nothing has generated yet, sorted:
// what the tests of package dbs3_test read of the catalog's state.
func (db *Database) Pending() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, len(db.pending))
	for i, e := range db.pending {
		names[i] = e.decl.relName()
	}
	sort.Strings(names)
	return names
}

// heldDecl is a declared relation whose generation of the pending entry
// holdSettle held starts, then waits for the test to close release: a settle
// held open. It counts those generations; a shard ShardRelation records
// meanwhile is a new entry, generated at once.
type heldDecl struct {
	declaration
	at               pendingRel // the held entry
	started, release chan struct{}
	settles          atomic.Int32
}

func (h *heldDecl) shard(col, shard, shards int) placed {
	if col == h.at.col && shard == h.at.shard && shards == h.at.shards {
		if h.settles.Add(1) == 1 {
			close(h.started)
		}
		<-h.release
	}
	return h.declaration.shard(col, shard, shards)
}

// holdSettle makes the settle of the pending relation called name wait for
// release to be closed; the returned declaration's started is closed when
// the settle begins.
func (db *Database) holdSettle(name string, release chan struct{}) *heldDecl {
	db.mu.Lock()
	defer db.mu.Unlock()
	i := db.declared(name)
	e := db.pending[i]
	h := &heldDecl{declaration: e.decl, at: e, started: make(chan struct{}), release: release}
	db.pending[i] = pendingRel{h, e.col, e.shard, e.shards}
	return h
}
