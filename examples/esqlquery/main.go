// ESQL compilation: show how the compiler picks the parallel plan shape from
// partitioning metadata. The same logical join compiles to the triggered
// IdealJoin when the operands are co-partitioned, and to the repartitioning
// AssocJoin (transmit + pipelined join) when they are not; both plans are
// printed as Graphviz DOT and then executed.
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
	if err := db.CreateJoinPair("", 5_000, 500, 10, 0.3); err != nil {
		log.Fatal(err)
	}

	// B is co-partitioned with A on k: IdealJoin (no transmit).
	ideal := "SELECT A.id, B.id FROM A JOIN B ON A.k = B.k WHERE A.id < 10"
	dot, err := db.ExplainContext(ctx, ideal, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("-- co-partitioned operands compile to a triggered join --")
	fmt.Print(dot)

	// Br is placed on id: the compiler inserts a transmit that redistributes
	// Br's tuples on k into a pipelined join against A's fragments.
	assoc := "SELECT A.id, Br.id FROM A JOIN Br ON A.k = Br.k WHERE A.id < 10"
	dot, err = db.ExplainContext(ctx, assoc, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n-- a mis-partitioned operand forces dynamic redistribution --")
	fmt.Print(dot)

	for _, sql := range []string{ideal, assoc} {
		res, err := db.QueryAllContext(ctx, sql, &dbs3.Options{Threads: 4})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s\n-> %d rows, operators:", sql, len(res.Data))
		for _, op := range res.Operators {
			fmt.Printf(" %s(x%d)", op.Name, op.Threads)
		}
		fmt.Println()
	}
}
