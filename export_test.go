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
	for i, d := range db.pending {
		names[i] = d.relName()
	}
	sort.Strings(names)
	return names
}

// heldDecl is a declared relation whose settle starts, then waits for the
// test to close release before it generates: a settle held open. It counts
// its settles.
type heldDecl struct {
	declaration
	started, release chan struct{}
	settles          atomic.Int32
}

func (h *heldDecl) settle() placed {
	if h.settles.Add(1) == 1 {
		close(h.started)
	}
	<-h.release
	return h.declaration.settle()
}

// holdSettle makes the settle of the pending relation called name wait for
// release to be closed; the returned declaration's started is closed when
// the settle begins.
func (db *Database) holdSettle(name string, release chan struct{}) *heldDecl {
	db.mu.Lock()
	defer db.mu.Unlock()
	i := db.declared(name)
	h := &heldDecl{declaration: db.pending[i], started: make(chan struct{}), release: release}
	db.pending[i] = h
	return h
}
