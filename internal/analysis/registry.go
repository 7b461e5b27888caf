package analysis

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{AtomicField, CancelClass, CtxFlow, LockIO, UnsafeConfine}
}

// ByName resolves a comma-separated analyzer selection; nil input means
// all. Unknown names return ok=false with the offending name.
func ByName(names []string) (as []*Analyzer, unknown string, ok bool) {
	if len(names) == 0 {
		return All(), "", true
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	for _, n := range names {
		a, found := byName[n]
		if !found {
			return nil, n, false
		}
		as = append(as, a)
	}
	return as, "", true
}
