package relation

// Batch-of-tuples helpers for the vectorized operator path. The engine hands
// operators whole activation batches (bounded by the internal cache size);
// operators that process them column-at-a-time use a selection vector to
// carry the surviving positions between evaluation steps instead of copying
// tuples.

// Selection is a selection vector: positions into a tuple batch, in
// ascending order. Vectorized predicate evaluation produces one; downstream
// steps iterate it instead of re-testing every tuple.
type Selection []int32

// SelectAll appends every position of an n-tuple batch to sel.
func SelectAll(sel Selection, n int) Selection {
	for i := 0; i < n; i++ {
		sel = append(sel, int32(i))
	}
	return sel
}
