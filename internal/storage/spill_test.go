package storage

import (
	"os"
	"strings"
	"sync"
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
	const n = 2000 // several blocks worth
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
	if run.Bytes() <= BlockSize {
		t.Fatalf("run bytes = %d, want multiple blocks", run.Bytes())
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

// TestSpillFileReadErrors: reading a run whose spill file is shorter than
// the run, or already closed, is an error, never a short or stale run.
func TestSpillFileReadErrors(t *testing.T) {
	env, err := NewSpillEnv(t.TempDir(), 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	w := env.NewRun()
	for i := int64(0); i < 500; i++ {
		if err := w.Add(spillTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.All(); err != nil {
		t.Fatalf("reading the run written: %v", err)
	}
	// Cut the file at a tuple boundary: the bytes left decode cleanly, so
	// only the run's own length can tell the file is short.
	cut := int64(100 * EncodedSize(spillTuple(0)))
	if err := os.Truncate(run.file.(*os.File).Name(), cut); err != nil {
		t.Fatal(err)
	}
	if n, err := countTuples(run); err == nil {
		t.Errorf("a run cut to %d of %d bytes read back %d tuples without error", cut, run.Bytes(), n)
	}
	if err := env.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := countTuples(run); err == nil {
		t.Errorf("a run of a closed env read back %d tuples without error", n)
	}
}

// TestSpillEnvCloseRacesRunReaders: a cancelled query closes its env while
// cursors may still be reading its runs. Each reader then reads its run
// whole or gets an error; none panics or reads a short run as complete.
func TestSpillEnvCloseRacesRunReaders(t *testing.T) {
	env, err := NewSpillEnv(t.TempDir(), 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := env.NewRun()
	for i := int64(0); i < 2000; i++ {
		if err := w.Add(spillTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n, err := countTuples(run)
				if err != nil {
					return
				}
				if n != run.Len() {
					t.Errorf("read %d of %d tuples without error", n, run.Len())
					return
				}
			}
		}()
	}
	if err := env.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// countTuples drains a run through Each.
func countTuples(r Run) (n int, err error) {
	err = r.Each(func(relation.Tuple) error { n++; return nil })
	return n, err
}

// TestRunBytesAreEncodedSizes: a run is its tuples' encodings and nothing
// else, so its Bytes and the accountant's spilled bytes are the sum of their
// EncodedSize, however the tuples fall across blocks.
func TestRunBytesAreEncodedSizes(t *testing.T) {
	env, err := NewSpillEnv(t.TempDir(), 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	rel := relation.Wisconsin("w", 1000, 1)
	var want, total int64
	for r, tuples := range [][]relation.Tuple{rel.Tuples, rel.Tuples[:1], {{}}, {relation.NewTuple(relation.Str(strings.Repeat("x", 3*BlockSize)))}} {
		w := env.NewRun()
		want = 0
		for _, tup := range tuples {
			if err := w.Add(tup); err != nil {
				t.Fatal(err)
			}
			want += int64(EncodedSize(tup))
		}
		run, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if run.Bytes() != want {
			t.Errorf("run %d: Bytes() = %d, its tuples encode to %d", r, run.Bytes(), want)
		}
		total += want
	}
	if bytes, _ := env.Spilled(); bytes != total {
		t.Errorf("the accountant counted %d spilled bytes, the runs hold %d", bytes, total)
	}
}

// TestRunHoldsTupleLargerThanBlock: a tuple of any size spills. A run with a
// 1 MiB string between small tuples reads back value for value through Each
// and Cursor, and the cursor's buffer grows to that tuple, not to the run.
func TestRunHoldsTupleLargerThanBlock(t *testing.T) {
	env, err := NewSpillEnv(t.TempDir(), 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	big := relation.NewTuple(relation.Int(-1), relation.Str(strings.Repeat("0123456789abcdef", 1<<16)))
	var in []relation.Tuple
	for i := int64(0); i < 300; i++ {
		in = append(in, spillTuple(i))
		if i == 150 {
			in = append(in, big)
		}
	}
	w := env.NewRun()
	for _, tup := range in {
		if err := w.Add(tup); err != nil {
			t.Fatal(err)
		}
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	if err := run.Each(func(tup relation.Tuple) error {
		if !tup.Equal(in[i]) {
			t.Fatalf("Each: tuple %d differs", i)
		}
		i++
		return nil
	}); err != nil || i != len(in) {
		t.Fatalf("Each read %d of %d tuples: %v", i, len(in), err)
	}
	c := run.Cursor()
	for i := range in {
		tup, ok, err := c.Next()
		if err != nil || !ok {
			t.Fatalf("Cursor stopped at tuple %d: %v", i, err)
		}
		if !tup.Equal(in[i]) {
			t.Fatalf("Cursor: tuple %d differs", i)
		}
	}
	if _, ok, err := c.Next(); ok || err != nil {
		t.Fatalf("Cursor past the end: %v, %v", ok, err)
	}
	if size, limit := len(c.buf), 2*EncodedSize(big); size > limit || int64(size) > run.Bytes() {
		t.Errorf("the cursor's buffer grew to %d bytes for a %d-byte tuple in a %d-byte run", size, EncodedSize(big), run.Bytes())
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
	a.NoteSpill(300)
	a.NoteSpill(BlockSize)
	a.NotePass()
	bytes, passes := a.Spilled()
	if bytes != 300+BlockSize || passes != 1 {
		t.Errorf("spilled = (%d, %d), want (%d, 1)", bytes, passes, 300+BlockSize)
	}
}

func TestTupleFootprint(t *testing.T) {
	tup := spillTuple(7)
	if f := TupleFootprint(tup); f <= int64(len(tup)) {
		t.Errorf("footprint %d does not cover overhead", f)
	}
}
