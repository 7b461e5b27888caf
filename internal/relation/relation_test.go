package relation

import "testing"

func smallRel(t *testing.T) *Relation {
	t.Helper()
	s := MustSchema(Column{"id", TInt}, Column{"name", TString})
	r := New("people", s)
	if err := r.Append(
		NewTuple(Int(1), Str("ann")),
		NewTuple(Int(2), Str("bob")),
		NewTuple(Int(3), Str("eve")),
	); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRelationAppendArity(t *testing.T) {
	r := smallRel(t)
	if err := r.Append(NewTuple(Int(4))); err == nil {
		t.Error("arity mismatch accepted")
	}
	if r.Cardinality() != 3 {
		t.Errorf("Cardinality = %d, want 3", r.Cardinality())
	}
}

func TestEqualMultiset(t *testing.T) {
	r := smallRel(t)
	o := &Relation{Name: r.Name, Schema: r.Schema, Tuples: append([]Tuple(nil), r.Tuples...)}
	// Reorder o.
	o.Tuples[0], o.Tuples[2] = o.Tuples[2], o.Tuples[0]
	if !r.EqualMultiset(o) {
		t.Error("reordered relation should be multiset-equal")
	}
	o.Tuples[0] = NewTuple(Int(9), Str("zed"))
	if r.EqualMultiset(o) {
		t.Error("different contents reported equal")
	}
	short := New("s", r.Schema)
	if r.EqualMultiset(short) {
		t.Error("different cardinalities reported equal")
	}
}

func TestEqualMultisetDuplicates(t *testing.T) {
	s := MustSchema(Column{"x", TInt})
	a := New("a", s)
	a.Tuples = append(a.Tuples, NewTuple(Int(1)), NewTuple(Int(1)), NewTuple(Int(2)))
	b := New("b", s)
	b.Tuples = append(b.Tuples, NewTuple(Int(1)), NewTuple(Int(2)), NewTuple(Int(2)))
	if a.EqualMultiset(b) {
		t.Error("multiplicity mismatch reported equal")
	}
}

func TestRelationString(t *testing.T) {
	r := smallRel(t)
	want := "people(id INT, name STRING) [3 tuples]"
	if r.String() != want {
		t.Errorf("String = %q, want %q", r.String(), want)
	}
}
