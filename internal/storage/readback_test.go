package storage

import (
	"bytes"
	"encoding/binary"
	"testing"

	"dbs3/internal/race"
	"dbs3/internal/relation"
)

// wisconsinRun returns the codec bytes of a run of n Wisconsin tuples
// (thirteen integer and three string columns each), as a writer lays them
// out, and the tuples.
func wisconsinRun(n int) ([]byte, []relation.Tuple) {
	rel := relation.Wisconsin("w", n, 1)
	var data []byte
	for _, tup := range rel.Tuples {
		data = EncodeTuple(data, tup)
	}
	return data, rel.Tuples
}

// runOf is a run over data held in memory.
func runOf(data []byte) Run {
	return Run{file: bytes.NewReader(data), bytes: int64(len(data))}
}

// TestRunCursorRejectsCorruptRuns: every way a run's bytes can lie about
// their tuples is an error, never a panic and never a read past the run.
func TestRunCursorRejectsCorruptRuns(t *testing.T) {
	good, tuples := wisconsinRun(100)
	if len(good) < 2*BlockSize {
		t.Fatalf("the run is %d bytes: the test wants tuples cut across reads", len(good))
	}
	if got, err := runOf(good).All(); err != nil || len(got) != len(tuples) {
		t.Fatalf("the intact run read back %d of %d tuples: %v", len(got), len(tuples), err)
	}
	last := len(good) - EncodedSize(tuples[len(tuples)-1])
	mid := 0 // where the tuple past the first block starts
	for _, tup := range tuples {
		if mid > BlockSize {
			break
		}
		mid += EncodedSize(tup)
	}
	for name, corrupt := range map[string]func(run []byte) []byte{
		"truncated inside a tuple":  func(run []byte) []byte { return run[:len(run)-7] },
		"truncated inside a header": func(run []byte) []byte { return run[:last+1] },
		"string length past the end": func(run []byte) []byte {
			// the last tuple's first string claims to be a block long
			binary.LittleEndian.PutUint32(run[last+2+13*9+1:], BlockSize)
			return run
		},
		"unknown tag": func(run []byte) []byte { run[mid+2] = 9; return run },
		"more columns than bytes": func(run []byte) []byte {
			binary.LittleEndian.PutUint16(run[last:], 0xffff)
			return run
		},
	} {
		run := runOf(corrupt(bytes.Clone(good)))
		if n, err := countTuples(run); err == nil {
			t.Errorf("%s: read back %d tuples without error", name, n)
		}
	}
}

// TestReadBackAllocatesPerBlock pins where read-back's allocations go: a run
// of string-carrying tuples read from its file costs one read buffer per
// reader and a slab chunk now and then — nothing per block read, not an
// allocation per tuple, let alone one per string.
func TestReadBackAllocatesPerBlock(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	rel := relation.Wisconsin("w", 5_000, 1)
	env, err := NewSpillEnv(t.TempDir(), 1<<20, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	w := env.NewRun()
	for _, tup := range rel.Tuples {
		if err := w.Add(tup); err != nil {
			t.Fatal(err)
		}
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	blocks := float64(run.Bytes()) / BlockSize
	for name, read := range map[string]func() (int, error){
		"Each": func() (n int, err error) {
			err = run.Each(func(relation.Tuple) error { n++; return nil })
			return n, err
		},
		"All": func() (int, error) {
			all, err := run.All()
			return len(all), err
		},
		"Cursor": func() (n int, err error) {
			c := run.Cursor()
			for {
				_, ok, err := c.Next()
				if err != nil || !ok {
					return n, err
				}
				n++
			}
		},
	} {
		allocs := race.AllocsPerRun(3, func() {
			if n, err := read(); err != nil || n != run.Len() {
				t.Fatalf("%s read %d of %d tuples: %v", name, n, run.Len(), err)
			}
		})
		if limit := blocks / 3; allocs >= limit {
			t.Errorf("%s: %v allocations for %d tuples in %.0f blocks, want fewer than %v", name, allocs, run.Len(), blocks, limit)
		}
		t.Logf("%s: %.3f allocations per tuple, %.2f per block", name, allocs/float64(run.Len()), allocs/blocks)
	}
}

// TestReadBackReturnsTheRelationWritten: a relation of wide string-carrying
// tuples written to a run of many blocks reads back as the same multiset.
func TestReadBackReturnsTheRelationWritten(t *testing.T) {
	rel := relation.Wisconsin("w", 3_000, 5)
	env, err := NewSpillEnv(t.TempDir(), 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	w := env.NewRun()
	for _, tup := range rel.Tuples {
		if err := w.Add(tup); err != nil {
			t.Fatal(err)
		}
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if blocks := run.Bytes() / BlockSize; blocks < 8 {
		t.Fatalf("the run is only %d blocks: the test wants many", blocks)
	}
	back, err := run.All()
	if err != nil {
		t.Fatal(err)
	}
	if got := (&relation.Relation{Schema: rel.Schema, Tuples: back}); !got.EqualMultiset(rel) {
		t.Error("the relation read back differs from the one written")
	}
}

// FuzzDecodeTupleInto feeds arbitrary bytes to the read-back path, both as
// one encoded tuple and as a whole run: whatever they hold, the decoders
// return an error or tuples that re-encode to exactly the bytes they
// consumed, and the cursor never panics, never reads past the run and never
// buffers more than the run holds.
func FuzzDecodeTupleInto(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, tagInt, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{2, 0, tagString, 3, 0, 0, 0, 'a', 'b', 'c', tagString, 0, 0, 0, 0})
	f.Add([]byte{1, 0, tagString, 0xff, 0xff, 0xff, 0xff, 'x'})
	f.Add([]byte{0xff, 0xff, tagInt})
	run, _ := wisconsinRun(100)
	f.Add(run)
	f.Fuzz(func(t *testing.T, data []byte) {
		var slab relation.Slab
		if tup, n, err := DecodeTupleInto(&slab, data); err == nil {
			if n > len(data) || n != EncodedSize(tup) || !bytes.Equal(EncodeTuple(nil, tup), data[:n]) {
				t.Fatalf("decoded %v from %d of %d bytes, which re-encodes differently", tup, n, len(data))
			}
		}
		c := runOf(data).Cursor()
		var again []byte
		for {
			tup, ok, err := c.Next()
			if len(c.buf) > len(data) {
				t.Fatalf("the cursor buffers %d bytes of a %d-byte run", len(c.buf), len(data))
			}
			if err != nil {
				return
			}
			if !ok {
				break
			}
			again = EncodeTuple(again, tup)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("a run of %d bytes read back as tuples that re-encode to %d", len(data), len(again))
		}
	})
}
