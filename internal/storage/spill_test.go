package storage

import (
	"os"
	"testing"

	"dbs3/internal/relation"
)

func spillTuple(k int64) relation.Tuple {
	return relation.NewTuple(relation.Int(k), relation.Str("pad-pad-pad-pad"))
}

func TestRunWriterRoundTrip(t *testing.T) {
	env, err := NewSpillEnv(t.TempDir(), 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	w := env.NewRun()
	const n = 2000 // several pages worth
	for i := int64(0); i < n; i++ {
		if err := w.Add(spillTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if run.Len() != n {
		t.Fatalf("run length = %d, want %d", run.Len(), n)
	}
	if run.Bytes() <= PageSize {
		t.Fatalf("run bytes = %d, want multiple pages", run.Bytes())
	}
	// Each preserves write order and content.
	next := int64(0)
	err = run.Each(func(tup relation.Tuple) error {
		if tup[0].AsInt() != next {
			t.Fatalf("tuple %d out of order: %v", next, tup)
		}
		next++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != n {
		t.Fatalf("Each visited %d tuples, want %d", next, n)
	}
	// Cursor agrees with All.
	all, err := run.All()
	if err != nil {
		t.Fatal(err)
	}
	cur := run.Cursor()
	for i := range all {
		tup, ok, err := cur.Next()
		if err != nil || !ok {
			t.Fatalf("cursor stopped at %d: %v", i, err)
		}
		if tup.Compare(all[i]) != 0 {
			t.Fatalf("cursor tuple %d = %v, All = %v", i, tup, all[i])
		}
	}
	if _, ok, _ := cur.Next(); ok {
		t.Fatal("cursor yielded past the end")
	}
}

func TestSpillEnvCloseRemovesFiles(t *testing.T) {
	dir := t.TempDir()
	env, err := NewSpillEnv(dir, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		w := env.NewRun()
		for i := int64(0); i < 500; i++ {
			if err := w.Add(spillTuple(i)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := w.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Fatal("no spill files created")
	}
	if err := env.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err = os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill dir not empty after Close: %d entries", len(ents))
	}
	if err := env.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestSpillFileReadErrors: a read outside the pages written, into a buffer
// that is not one page, or of a closed file is an error, never a short or
// stale page.
func TestSpillFileReadErrors(t *testing.T) {
	f, err := newSpillFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Append(NewPage().Bytes()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if err := f.Read(0, buf); err != nil {
		t.Fatalf("reading the one page written: %v", err)
	}
	for name, read := range map[string]func() error{
		"slot past the end": func() error { return f.Read(99, buf) },
		"negative slot":     func() error { return f.Read(-1, buf) },
		"short buffer":      func() error { return f.Read(0, buf[:100]) },
	} {
		if read() == nil {
			t.Errorf("%s: read accepted", name)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if f.Read(0, buf) == nil {
		t.Error("read of a closed file accepted")
	}
}

func TestAccountantSemantics(t *testing.T) {
	var nilAcc *Accountant
	if !nilAcc.Reserve(100) {
		t.Error("nil accountant must admit everything")
	}
	nilAcc.Release(100) // must not panic

	a := NewAccountant(100)
	if !a.Reserve(60) {
		t.Error("60 of 100 must fit")
	}
	if a.Reserve(60) {
		t.Error("120 of 100 must not fit")
	}
	// The charge sticks either way — the caller spills and releases.
	if a.used.Load() != 120 {
		t.Errorf("used = %d, want 120 (charge sticks)", a.used.Load())
	}
	a.Release(120)
	if a.used.Load() != 0 {
		t.Errorf("used = %d after release, want 0", a.used.Load())
	}
	// Grant <= 0 is unlimited.
	a.SetGrant(0)
	if !a.Reserve(1 << 40) {
		t.Error("unlimited grant rejected a reservation")
	}
	a.Release(1 << 40)
	// Spill counters accumulate.
	a.NoteSpill(PageSize)
	a.NoteSpill(PageSize)
	a.NotePass()
	bytes, passes := a.Spilled()
	if bytes != 2*PageSize || passes != 1 {
		t.Errorf("spilled = (%d, %d), want (%d, 1)", bytes, passes, 2*PageSize)
	}
}

func TestTupleFootprint(t *testing.T) {
	tup := spillTuple(7)
	if f := TupleFootprint(tup); f <= int64(len(tup)) {
		t.Errorf("footprint %d does not cover overhead", f)
	}
}
