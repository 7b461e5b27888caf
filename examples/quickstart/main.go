// Quickstart: create a Wisconsin relation and the paper's join pair, then
// run a selection, a co-partitioned join and a grouped aggregate through the
// adaptive parallel execution engine — using the serving-scale API: prepared
// statements (compile once, execute many) and streaming row cursors.
package main

import (
	"context"
	"fmt"
	"log"

	"dbs3"
)

func main() {
	ctx := context.Background()
	db := dbs3.New()

	// A 10K-tuple Wisconsin relation, hash-partitioned on unique2 into 16
	// fragments; and the paper's A/B/Br join trio (A skewed with Zipf 0.5).
	if err := db.CreateWisconsin("wisc", 10_000, 16, "unique2", 42); err != nil {
		log.Fatal(err)
	}
	if err := db.CreateJoinPair("", 10_000, 1_000, 20, 0.5); err != nil {
		log.Fatal(err)
	}

	// 1. A parallel selection (triggered filter over 16 fragments), prepared
	// once and iterated with the cursor: rows stream out of the engine as
	// the filter instances produce them.
	stmt, err := db.Prepare("SELECT unique1, unique2 FROM wisc WHERE unique1 < 5", nil)
	if err != nil {
		log.Fatal(err)
	}
	rows, err := stmt.QueryContext(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("selection on %d threads:\n", rows.Threads())
	for rows.Next() {
		var u1, u2 int64
		if err := rows.Scan(&u1, &u2); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  unique1=%d unique2=%d\n", u1, u2)
	}
	if err := rows.Err(); err != nil {
		log.Fatal(err)
	}
	rows.Close()

	// 2. A co-partitioned join: the compiler recognizes that A and B are
	// both partitioned on k and emits the triggered IdealJoin plan. All()
	// materializes the stream for callers that want the whole table.
	res, err := db.QueryAllContext(ctx, "SELECT * FROM A JOIN B ON A.k = B.k", &dbs3.Options{Threads: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nideal join: %d rows on %d threads\n", len(res.Data), res.Threads)
	for _, op := range res.Operators {
		fmt.Printf("  %-10s threads=%d strategy=%s activations=%d\n", op.Name, op.Threads, op.Strategy, op.Activations)
	}

	// 3. A grouped aggregate (pipelined, redistributed on the group key),
	// again through the cursor.
	rows, err = db.QueryContext(ctx, "SELECT ten, COUNT(*) FROM wisc GROUP BY ten", nil)
	if err != nil {
		log.Fatal(err)
	}
	defer rows.Close()
	fmt.Printf("\ngroup by:\n")
	for rows.Next() {
		var ten, count int64
		if err := rows.Scan(&ten, &count); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  ten=%d count=%d\n", ten, count)
	}
	if err := rows.Err(); err != nil {
		log.Fatal(err)
	}
}
