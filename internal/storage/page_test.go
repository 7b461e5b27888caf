package storage

import (
	"testing"

	"dbs3/internal/relation"
)

// Tuples and Tuple read a page into a slab of its own — the tests' readers;
// the engine reads runs of pages through AppendTuples into one shared slab.
func (p *Page) Tuples() ([]relation.Tuple, error) {
	var slab relation.Slab
	return p.AppendTuples(&slab, make([]relation.Tuple, 0, p.Count()))
}

func (p *Page) Tuple(i int) (relation.Tuple, error) {
	ts, err := p.Tuples()
	if err != nil {
		return nil, err
	}
	return ts[i], nil
}

func TestPageInsertAndRead(t *testing.T) {
	p := NewPage()
	tuples := []relation.Tuple{
		relation.NewTuple(relation.Int(1), relation.Str("a")),
		relation.NewTuple(relation.Int(2), relation.Str("bb")),
		relation.NewTuple(relation.Int(3), relation.Str("ccc")),
	}
	for _, tup := range tuples {
		if !p.Insert(tup) {
			t.Fatalf("insert %v failed on empty page", tup)
		}
	}
	if p.Count() != 3 {
		t.Fatalf("Count = %d", p.Count())
	}
	for i, want := range tuples {
		got, err := p.Tuple(i)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("slot %d = %v, want %v", i, got, want)
		}
	}
	all, err := p.Tuples()
	if err != nil || len(all) != 3 {
		t.Fatalf("Tuples() = %v, %v", all, err)
	}
}

func TestPageFillsAndRejects(t *testing.T) {
	p := NewPage()
	tup := relation.NewTuple(relation.Int(7), relation.Str(string(make([]byte, 100))))
	inserted := 0
	for p.Insert(tup) {
		inserted++
		if inserted > PageSize {
			t.Fatal("page never filled")
		}
	}
	if inserted == 0 {
		t.Fatal("nothing fit on an empty page")
	}
	// Page must still decode cleanly after rejection.
	all, err := p.Tuples()
	if err != nil || len(all) != inserted {
		t.Fatalf("after fill: %d tuples, err %v", len(all), err)
	}
	// A small tuple may still fit even though the big one did not; make the
	// rejection sticky by filling with small tuples too.
	small := relation.NewTuple(relation.Int(1))
	for p.Insert(small) {
	}
	if p.Count() < inserted {
		t.Error("count shrank")
	}
}

func TestPageFromBytesRoundTrip(t *testing.T) {
	p := NewPage()
	tuples := []relation.Tuple{
		relation.NewTuple(relation.Int(10), relation.Str("x")),
		relation.NewTuple(relation.Int(20), relation.Str("y")),
	}
	for _, tup := range tuples {
		p.Insert(tup)
	}
	img := make([]byte, PageSize)
	copy(img, p.Bytes())
	q, err := PageFromBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	if q.Count() != 2 {
		t.Fatalf("Count = %d", q.Count())
	}
	// The adopted page must accept further inserts without corrupting
	// existing tuples.
	if !q.Insert(relation.NewTuple(relation.Int(30), relation.Str("z"))) {
		t.Fatal("insert into adopted page failed")
	}
	all, err := q.Tuples()
	if err != nil || len(all) != 3 {
		t.Fatalf("Tuples = %v, %v", all, err)
	}
	for i, want := range tuples {
		if !all[i].Equal(want) {
			t.Errorf("slot %d corrupted: %v", i, all[i])
		}
	}
}

func TestPageFromBytesRejectsBadSize(t *testing.T) {
	if _, err := PageFromBytes(make([]byte, 100)); err == nil {
		t.Error("short image accepted")
	}
}
