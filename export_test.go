package dbs3

import "sort"

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
