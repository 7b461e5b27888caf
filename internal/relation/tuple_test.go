package relation

import (
	"testing"
	"testing/quick"
)

func TestTupleEqual(t *testing.T) {
	a := NewTuple(Int(1), Str("x"))
	b := NewTuple(Int(1), Str("x"))
	c := NewTuple(Int(1), Str("y"))
	d := NewTuple(Int(1))
	if !a.Equal(b) {
		t.Error("equal tuples not equal")
	}
	if a.Equal(c) || a.Equal(d) {
		t.Error("different tuples reported equal")
	}
}

func TestTupleHashOnSameKeySameHash(t *testing.T) {
	a := NewTuple(Int(7), Str("left"), Int(99))
	b := NewTuple(Int(7), Str("right"), Int(-1))
	if a.HashOn([]int{0}) != b.HashOn([]int{0}) {
		t.Error("same key must hash identically regardless of other columns")
	}
	if a.HashOn([]int{0, 2}) == b.HashOn([]int{0, 2}) {
		t.Error("different composite keys should almost surely differ")
	}
}

func TestTupleHashOnOrderMatters(t *testing.T) {
	a := NewTuple(Int(1), Int(2))
	if a.HashOn([]int{0, 1}) == a.HashOn([]int{1, 0}) {
		t.Error("column order should change the composite hash")
	}
}

func TestTupleProject(t *testing.T) {
	a := NewTuple(Int(1), Str("x"), Int(3))
	p := a.Project([]int{2, 0})
	if len(p) != 2 || p[0].AsInt() != 3 || p[1].AsInt() != 1 {
		t.Errorf("Project = %v", p)
	}
}

func TestTupleConcat(t *testing.T) {
	a := NewTuple(Int(1))
	b := NewTuple(Str("x"), Int(2))
	c := a.Concat(b)
	if len(c) != 3 || c[0].AsInt() != 1 || c[1].AsString() != "x" || c[2].AsInt() != 2 {
		t.Errorf("Concat = %v", c)
	}
	// Concat must not alias a's storage.
	if &c[0] == &a[0] {
		t.Error("Concat aliases input")
	}
}

func TestTupleString(t *testing.T) {
	a := NewTuple(Int(1), Str("x"))
	if a.String() != "[1 x]" {
		t.Errorf("String = %q", a.String())
	}
}

func TestTupleKeyDistinguishesTypes(t *testing.T) {
	a := NewTuple(Int(1))
	b := NewTuple(Str("1"))
	if a.Key() == b.Key() {
		t.Error("Key must distinguish Int(1) from Str(\"1\")")
	}
}

// Property: Key is injective on integer tuples of the same arity (equal keys
// imply equal tuples).
func TestTupleKeyProperty(t *testing.T) {
	f := func(a, b int64, c, d int64) bool {
		t1 := NewTuple(Int(a), Int(b))
		t2 := NewTuple(Int(c), Int(d))
		return (t1.Key() == t2.Key()) == t1.Equal(t2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: HashOn is a function of the projected key values only.
func TestTupleHashOnProperty(t *testing.T) {
	f := func(key int64, pad1, pad2 int64) bool {
		t1 := NewTuple(Int(key), Int(pad1))
		t2 := NewTuple(Int(key), Int(pad2))
		return t1.HashOn([]int{0}) == t2.HashOn([]int{0})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
