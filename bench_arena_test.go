package dbs3_test

// Benchmarks of the tuple producers: what one shard compaction, one CSV
// import and one triggered IdealJoin cost in time and in allocator entries.
// Together with BenchmarkLoadWisconsin and BenchmarkLoadJoinDB they are the
// `go test -bench` view of bench/'s setup_s and bench.allocs_per_op.

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"dbs3"
	"dbs3/internal/core"
	"dbs3/internal/lera"
	"dbs3/internal/relation"
	"dbs3/internal/workload"
)

// BenchmarkShardRelation compacts one cluster node's catalog (bench/'s
// cluster-open shape: Wisconsin 20 000 and a join pair, shard 1 of 3). The
// loads run outside the timer.
func BenchmarkShardRelation(b *testing.B) {
	dist := [][2]string{{"wisc", "unique2"}, {"A", "k"}, {"B", "k"}, {"Br", "k"}}
	live, scan := resident()
	var db *dbs3.Database
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db = dbs3.New()
		if err := db.CreateWisconsin("wisc", 20_000, 16, "unique2", 42); err != nil {
			b.Fatal(err)
		}
		if err := db.CreateJoinPair("", 20_000, 2_000, 16, 0.5); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, d := range dist {
			if err := db.ShardRelation(d[0], d[1], 1, 3); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	tuples := 0
	for _, d := range dist {
		sizes, err := db.FragmentSizes(d[0])
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range sizes {
			tuples += n
		}
	}
	reportResident(b, live, scan, tuples, db)
}

// BenchmarkLoadCSV imports a 20 000-row Wisconsin dump through the facade.
func BenchmarkLoadCSV(b *testing.B) {
	var dump bytes.Buffer
	if err := relation.Wisconsin("w", 20_000, 42).WriteCSV(&dump); err != nil {
		b.Fatal(err)
	}
	benchLoad(b, func() (any, int) {
		db := dbs3.New()
		if err := db.LoadCSV("w", bytes.NewReader(dump.Bytes()), "unique2", 16); err != nil {
			b.Fatal(err)
		}
		return db, 20_000
	})
}

// BenchmarkIdealJoinTriggered is the paper's headline plan at engine-skew's
// sizes: a triggered hash join of co-partitioned A (100k) and B (10 240) over
// 64 fragments, materialized. Every result tuple is a new tuple, so allocs/op
// is the triggered join's tuple construction.
func BenchmarkIdealJoinTriggered(b *testing.B) {
	db, err := workload.NewJoinDB(100_000, 10_240, 64, 0)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := db.IdealJoinPlan(lera.HashJoin)
	if err != nil {
		b.Fatal(err)
	}
	rels := db.Relations()
	for _, threads := range []int{1, 2} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := core.ExecuteContext(context.Background(), plan, rels, core.Options{Threads: threads})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					if err := db.VerifyJoinResult(res.Outputs["Res"]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
