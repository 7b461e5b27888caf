package storage

import (
	"sync/atomic"

	"dbs3/internal/relation"
)

// tupleOverhead approximates the in-memory cost of a resident tuple beyond
// its encoded payload: the 24-byte slice header, what the 16-byte Values
// take beyond their encoding, and the pointers an operator's index keeps per
// entry. The accountant charges encoded size plus this constant, so the
// grant governs real footprint, not wire bytes. It is a flat per-tuple
// figure (about right for a three-column tuple: 24 + 3×16 resident against
// 26 encoded; low for wide ones), and it was deliberately not retuned when
// the Value shrank from 32 to 16 bytes: grants, and with them which queries
// spill and how often, are priced in these units, and a layout change must
// not move scheduling decisions.
const tupleOverhead = 48

// TupleFootprint estimates the resident bytes a tuple costs a blocking
// operator that keeps it.
func TupleFootprint(t relation.Tuple) int64 {
	return int64(EncodedSize(t)) + tupleOverhead
}

// Accountant tracks a query's working-set bytes against its memory grant.
// Blocking operators (join build sides, aggregate groups, stage stores)
// Reserve bytes as they retain state; when Reserve reports the grant
// exceeded, the operator spills part of its state to disk and Releases what
// it freed. A nil accountant (or a grant <= 0) never triggers spill — the
// paper's memory-resident regime.
//
// Reserve is deliberately not an acquire/block primitive: the answer to an
// overrun is spilling, never waiting, so memory pressure cannot introduce a
// second blocking resource and the admission layer's deadlock-freedom
// argument (threads and memory granted atomically, no hold-and-wait)
// survives inside the operators too.
type Accountant struct {
	grant        atomic.Int64
	used         atomic.Int64
	spilledBytes atomic.Int64
	spillPasses  atomic.Int64
}

// NewAccountant returns an accountant enforcing the given grant in bytes.
// grant <= 0 means unlimited.
func NewAccountant(grant int64) *Accountant {
	a := &Accountant{}
	a.grant.Store(grant)
	return a
}

// Grant returns the current grant in bytes (<= 0 = unlimited).
func (a *Accountant) Grant() int64 {
	if a == nil {
		return 0
	}
	return a.grant.Load()
}

// SetGrant renegotiates the grant, e.g. when admission shrinks the
// reservation at a chain boundary. Operators observe the new ceiling at
// their next Reserve.
func (a *Accountant) SetGrant(n int64) {
	if a != nil {
		a.grant.Store(n)
	}
}

// Reserve charges n bytes and reports whether the working set still fits
// the grant. The charge sticks either way: a caller that reacts to false by
// spilling must Release the bytes it actually freed.
func (a *Accountant) Reserve(n int64) bool {
	if a == nil {
		return true
	}
	used := a.used.Add(n)
	g := a.grant.Load()
	return g <= 0 || used <= g
}

// Release returns n bytes to the grant.
func (a *Accountant) Release(n int64) {
	if a != nil {
		a.used.Add(-n)
	}
}

// NoteSpill records bytes written to spill storage.
func (a *Accountant) NoteSpill(bytes int64) {
	if a != nil {
		a.spilledBytes.Add(bytes)
	}
}

// NotePass records one spill pass — a partitioning or run-writing sweep
// over an operator's state. Recursive repartitioning counts once per level.
func (a *Accountant) NotePass() {
	if a != nil {
		a.spillPasses.Add(1)
	}
}

// Spilled returns cumulative (bytes written to spill files, spill passes).
func (a *Accountant) Spilled() (bytes, passes int64) {
	if a == nil {
		return 0, 0
	}
	return a.spilledBytes.Load(), a.spillPasses.Load()
}
