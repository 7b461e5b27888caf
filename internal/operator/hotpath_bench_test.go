package operator

// Hot-path microbenchmarks for the allocation-free join/aggregate keys: one
// probed or grouped tuple per iteration, handed over as a run of one.

import (
	"fmt"
	"testing"

	"dbs3/internal/lera"
	"dbs3/internal/relation"
)

// benchFragment builds a (k, id, pad) fragment with nKeys distinct keys.
func benchFragment(n, nKeys int) []relation.Tuple {
	out := make([]relation.Tuple, n)
	for i := range out {
		out[i] = relation.NewTuple(
			relation.Int(int64(i%nKeys)),
			relation.Int(int64(i)),
			relation.Str(fmt.Sprintf("pad-%d", i%7)),
		)
	}
	return out
}

func benchmarkJoinProbe(b *testing.B, algo lera.JoinAlgo) {
	j := &Join{Algo: algo, BuildKey: []int{0}, ProbeKey: []int{0}}
	ctx := &Context{Instance: 0, Build: benchFragment(10_000, 10_000)}
	if err := j.Setup(ctx); err != nil {
		b.Fatal(err)
	}
	probes := benchFragment(1024, 10_000)
	matched := 0
	emit := func(relation.Tuple) { matched++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(probes)
		if err := j.OnBatch(ctx, probes[k:k+1], emit); err != nil {
			b.Fatal(err)
		}
	}
	if matched == 0 {
		b.Fatal("probe never matched")
	}
}

func BenchmarkJoinProbeHashKey(b *testing.B)      { benchmarkJoinProbe(b, lera.HashJoin) }
func BenchmarkJoinProbeTempIndexKey(b *testing.B) { benchmarkJoinProbe(b, lera.TempIndex) }

func BenchmarkAggregateTupleHashKey(b *testing.B) {
	a := &Aggregate{GroupBy: []int{0}, Kind: lera.AggSum, AggCol: 1}
	ctx := &Context{Instance: 0}
	if err := a.Setup(ctx); err != nil {
		b.Fatal(err)
	}
	tuples := benchFragment(1024, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(tuples)
		if err := a.OnBatch(ctx, tuples[k:k+1], nil); err != nil {
			b.Fatal(err)
		}
	}
}
