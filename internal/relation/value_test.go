package relation

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestTypeString(t *testing.T) {
	if TInt.String() != "INT" {
		t.Errorf("TInt.String() = %q, want INT", TInt.String())
	}
	if TString.String() != "STRING" {
		t.Errorf("TString.String() = %q, want STRING", TString.String())
	}
	if got := Type(99).String(); got != "Type(99)" {
		t.Errorf("unknown type string = %q", got)
	}
}

func TestIntValue(t *testing.T) {
	v := Int(42)
	if v.Kind() != TInt {
		t.Fatalf("kind = %v, want TInt", v.Kind())
	}
	if v.AsInt() != 42 {
		t.Errorf("AsInt = %d, want 42", v.AsInt())
	}
	if v.String() != "42" {
		t.Errorf("String = %q, want 42", v.String())
	}
}

func TestStringValue(t *testing.T) {
	v := Str("paris")
	if v.Kind() != TString {
		t.Fatalf("kind = %v, want TString", v.Kind())
	}
	if v.AsString() != "paris" {
		t.Errorf("AsString = %q", v.AsString())
	}
	if v.String() != "paris" {
		t.Errorf("String = %q", v.String())
	}
}

func TestValueAccessorPanics(t *testing.T) {
	mustPanic(t, func() { Int(1).AsString() })
	mustPanic(t, func() { Str("x").AsInt() })
	mustPanic(t, func() { Int(1).Compare(Str("x")) })
}

// TestValueLayout pins the two-word layout and what it must not cost: the
// zero Value is still Int(0), the empty string is still a string, and ==
// (which would compare string pointers) does not compile.
func TestValueLayout(t *testing.T) {
	typ := reflect.TypeOf(Value{})
	if typ.Size() != 16 {
		t.Errorf("Value is %d bytes, want 16", typ.Size())
	}
	if typ.Comparable() {
		t.Error("Value is comparable: == would compare string pointers, not text")
	}
	var zero Value
	if zero.Kind() != TInt || zero.AsInt() != 0 || !zero.Equal(Int(0)) || zero.String() != "0" {
		t.Errorf("zero Value = %v (%v), want Int(0)", zero, zero.Kind())
	}
	empty := Str("")
	if empty.Kind() != TString || empty.AsString() != "" || empty.String() != "" {
		t.Errorf("Str(\"\") = %q (%v), want the empty string", empty, empty.Kind())
	}
	if !empty.Equal(Str("")) || empty.Equal(zero) || zero.Equal(empty) {
		t.Error("Str(\"\") must equal itself and differ from Int(0)")
	}
	mustPanic(t, func() { empty.AsInt() })
	mustPanic(t, func() { empty.Compare(zero) })
}

// TestValueEqualCompareHash: Equal, Compare and Hash agree with each other
// over ints, empty and non-empty strings, and equal text in distinct
// backings; Hash is hash/fnv's FNV-1a over the little-endian integer or the
// string bytes.
func TestValueEqualCompareHash(t *testing.T) {
	text := []byte("paris")
	backingA, backingB := string(text), string(text) // two allocations, same text
	fnv1a := func(b []byte) uint64 {
		h := fnv.New64a()
		h.Write(b)
		return h.Sum64()
	}
	intHash := func(v int64) uint64 { return fnv1a(binary.LittleEndian.AppendUint64(nil, uint64(v))) }
	cases := []struct {
		a, b Value
		cmp  int // a.Compare(b)
		hash uint64
	}{
		{Int(1), Int(1), 0, intHash(1)},
		{Int(1), Int(2), -1, intHash(1)},
		{Int(0), Int(math.MinInt64), 1, intHash(0)},
		{Int(-1), Int(math.MaxInt64), -1, intHash(-1)},
		{Str(""), Str(""), 0, fnv1a(nil)},
		{Str(""), Str("a"), -1, fnv1a(nil)},
		{Str("a"), Str("a"), 0, fnv1a([]byte("a"))},
		{Str("a"), Str("b"), -1, fnv1a([]byte("a"))},
		{Str("ab"), Str("a"), 1, fnv1a([]byte("ab"))},
		{Str(backingA), Str(backingB), 0, fnv1a(text)},
		{Str(backingA[:3]), Str(backingB), -1, fnv1a(text[:3])},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.cmp {
			t.Errorf("Compare(%q,%q) = %d, want %d", c.a, c.b, got, c.cmp)
		}
		if got := c.b.Compare(c.a); got != -c.cmp {
			t.Errorf("Compare(%q,%q) = %d, want %d", c.b, c.a, got, -c.cmp)
		}
		if got := c.a.Equal(c.b); got != (c.cmp == 0) {
			t.Errorf("Equal(%q,%q) = %v", c.a, c.b, got)
		}
		if got := c.a.Hash(); got != c.hash {
			t.Errorf("Hash(%q) = %#x, want hash/fnv's %#x", c.a, got, c.hash)
		}
		if c.cmp == 0 && c.a.Hash() != c.b.Hash() {
			t.Errorf("equal values %q hash differently", c.a)
		}
	}
	// Across types Equal is false (Compare panics, see above), even where
	// the payload words coincide: Int(1) vs a 1-byte string, Int(0) vs "".
	for _, pair := range [][2]Value{{Int(1), Str("1")}, {Int(0), Str("")}, {Int(5), Str("paris")}} {
		if pair[0].Equal(pair[1]) || pair[1].Equal(pair[0]) {
			t.Errorf("Equal(%q,%q) across types", pair[0], pair[1])
		}
	}
}

// Property: Compare is antisymmetric and consistent with Equal for integers.
func TestValueCompareProperty(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		if va.Compare(vb) != -vb.Compare(va) {
			return false
		}
		return (va.Compare(vb) == 0) == va.Equal(vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: equal values hash identically (ints and strings).
func TestValueHashEqualProperty(t *testing.T) {
	fi := func(a int64) bool { return Int(a).Hash() == Int(a).Hash() }
	fs := func(s string) bool { return Str(s).Hash() == Str(s).Hash() }
	if err := quick.Check(fi, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(fs, nil); err != nil {
		t.Error(err)
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}
