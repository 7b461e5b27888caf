package operator

import (
	"fmt"
	"testing"

	"dbs3/internal/lera"
	"dbs3/internal/relation"
	"dbs3/internal/storage"
)

// TestGraceOneSidedPartitionsCountTheirBytes: a Grace join whose build side
// went to disk reports every byte its partitions wrote, including those of
// partitions the probe side never reached, so the operator's spill counters
// agree with the query's accountant.
func TestGraceOneSidedPartitionsCountTheirBytes(t *testing.T) {
	build := relation.Wisconsin("w", 4000, 1).Tuples
	for _, probes := range []int{0, 1} {
		t.Run(fmt.Sprintf("probes=%d", probes), func(t *testing.T) {
			env, err := storage.NewSpillEnv(t.TempDir(), 16<<10, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer env.Close()
			j := &Join{Algo: lera.HashJoin, BuildKey: []int{0}, ProbeKey: []int{0}, Spill: env}
			ctx := &Context{Build: build, Input: build[:probes]}
			if err := j.Setup(ctx); err != nil {
				t.Fatal(err)
			}
			if _, ok := ctx.State.(*graceState); !ok {
				t.Fatal("the build side did not go to disk")
			}
			emit, out := collect()
			if err := j.OnBatch(ctx, ctx.Input, emit); err != nil {
				t.Fatal(err)
			}
			if err := j.OnClose(ctx, emit); err != nil {
				t.Fatal(err)
			}
			if len(*out) != probes {
				t.Errorf("%d rows joined, want %d", len(*out), probes)
			}
			opBytes, opPasses := j.SpillStats()
			envBytes, envPasses := env.Spilled()
			if envBytes == 0 || opBytes != envBytes || opPasses != envPasses {
				t.Errorf("operator spilled %d B over %d passes, accountant %d B over %d", opBytes, opPasses, envBytes, envPasses)
			}
		})
	}
}

// TestStoreSpilledBytesAreItsRuns: spilled bytes are encoded bytes. A store
// that spills many times over reports, on its own counters and on the
// query's accountant (which a footer's spill totals read), exactly the sum
// of its runs' Bytes, and that is the sum of EncodedSize over the tuples the
// runs hold.
func TestStoreSpilledBytesAreItsRuns(t *testing.T) {
	in := relation.Wisconsin("w", 2000, 1).Tuples
	env, err := storage.NewSpillEnv(t.TempDir(), 16<<10, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	s := &Store{Spill: env}
	ctx := &Context{}
	if err := s.Setup(ctx); err != nil {
		t.Fatal(err)
	}
	for ts := in; len(ts) > 0; ts = ts[min(len(ts), 64):] {
		if err := s.OnBatch(ctx, ts[:min(len(ts), 64)], nil); err != nil {
			t.Fatal(err)
		}
	}
	var runBytes, encoded int64
	for _, r := range ctx.State.(*storeInst).runs {
		runBytes += r.Bytes()
		if err := r.Each(func(tup relation.Tuple) error {
			encoded += int64(storage.EncodedSize(tup))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	opBytes, opPasses := s.SpillStats()
	envBytes, _ := env.Spilled()
	if opPasses < 2 || runBytes != encoded || opBytes != runBytes || envBytes != runBytes {
		t.Errorf("%d passes: runs hold %d B in Bytes and %d B encoded; the store counted %d B, the accountant %d B",
			opPasses, runBytes, encoded, opBytes, envBytes)
	}
	res, err := s.Results([]*Context{ctx})
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0]) != len(in) {
		t.Errorf("the store gave back %d of %d tuples", len(res[0]), len(in))
	}
}

// TestAggregateEmissionOrderIgnoresSpill: OnClose emits the same sequence of
// groups, in group-key order, whether the table stayed in memory or went to
// disk many times under a tiny grant.
func TestAggregateEmissionOrderIgnoresSpill(t *testing.T) {
	in := relation.Wisconsin("w", 2000, 1).Tuples
	col := relation.WisconsinSchema.MustIndex
	cases := []struct {
		name    string
		groupBy []int
		kind    lera.AggKind
		aggCol  int
	}{
		{"count", []int{col("onePercent")}, lera.AggCount, -1},
		{"sum", []int{col("onePercent")}, lera.AggSum, col("unique1")},
		{"min", []int{col("onePercent")}, lera.AggMin, col("unique2")},
		{"max", []int{col("onePercent")}, lera.AggMax, col("unique2")},
		{"min-string", []int{col("onePercent")}, lera.AggMin, col("stringu1")},
		{"max-string", []int{col("onePercent")}, lera.AggMax, col("stringu2")},
		{"two-column", []int{col("string4"), col("onePercent")}, lera.AggMax, col("unique1")},
	}
	run := func(a *Aggregate) []relation.Tuple {
		ctx := &Context{}
		if err := a.Setup(ctx); err != nil {
			t.Fatal(err)
		}
		for ts := in; len(ts) > 0; ts = ts[min(len(ts), 64):] {
			if err := a.OnBatch(ctx, ts[:min(len(ts), 64)], nil); err != nil {
				t.Fatal(err)
			}
		}
		emit, out := collect()
		if err := a.OnClose(ctx, emit); err != nil {
			t.Fatal(err)
		}
		return *out
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			env, err := storage.NewSpillEnv(t.TempDir(), 2<<10, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer env.Close()
			mem := run(&Aggregate{GroupBy: c.groupBy, Kind: c.kind, AggCol: c.aggCol})
			spilled := &Aggregate{GroupBy: c.groupBy, Kind: c.kind, AggCol: c.aggCol, Spill: env}
			disk := run(spilled)
			if _, passes := spilled.SpillStats(); passes < 2 {
				t.Fatalf("%d spill passes under a 2 KiB grant, want several", passes)
			}
			if len(mem) != len(disk) {
				t.Fatalf("%d groups in memory, %d with spill", len(mem), len(disk))
			}
			for i := range mem {
				if !mem[i].Equal(disk[i]) {
					t.Fatalf("row %d: %v in memory, %v with spill", i, mem[i], disk[i])
				}
				if i > 0 && mem[i-1].Compare(mem[i]) >= 0 {
					t.Fatalf("rows %d and %d out of group order: %v, %v", i-1, i, mem[i-1], mem[i])
				}
			}
		})
	}
}
