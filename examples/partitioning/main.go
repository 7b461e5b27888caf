// Decoupling the degree of parallelism from the degree of partitioning: the
// paper's central design point (§1, §5.6). With the thread count fixed,
// raising the degree of partitioning d shrinks the sequential unit of work,
// so a skewed triggered join balances better — the mechanism behind Figures
// 18-19. The example predicts KSR1 times across d with the calibrated
// simulator, then runs one configuration on the real engine to show d and
// the thread count are set independently.
package main

import (
	"context"
	"fmt"
	"log"

	"dbs3"
)

const (
	aCard   = 100_000
	bCard   = 10_000
	threads = 20
	theta   = 0.6
)

func main() {
	fmt.Printf("IdealJoin, %d threads, Zipf %.1f, LPT; varying degree of partitioning\n\n", threads, theta)
	fmt.Println("degree | skewed time (s) | unskewed time (s) | skew overhead v")
	for _, d := range []int{20, 100, 250, 500, 1000} {
		skewed, err := dbs3.PredictIdealJoin(aCard, bCard, d, threads, theta, "lpt")
		if err != nil {
			log.Fatal(err)
		}
		flat, err := dbs3.PredictIdealJoin(aCard, bCard, d, threads, 0, "lpt")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%6d | %15.2f | %17.2f | %14.3f\n", d, skewed, flat, skewed/flat-1)
	}
	fmt.Println("\nShape check (paper Figure 18): the skew overhead v collapses as d grows,")
	fmt.Println("because one activation = one fragment and LPT can balance small fragments.")

	// On the real engine: same thread count against two different degrees
	// of partitioning — the decoupling the static model cannot do.
	fmt.Println("\nReal engine, 6 threads, d = 12 vs d = 120 (Zipf 0.8):")
	for _, d := range []int{12, 120} {
		db := dbs3.New()
		if err := db.CreateJoinPair("", 24_000, 2_400, d, 0.8); err != nil {
			log.Fatal(err)
		}
		// The cursor streams the join result; we only need the row count,
		// so drain it without materializing and read the footer.
		rows, err := db.QueryContext(context.Background(), "SELECT * FROM A JOIN B ON A.k = B.k",
			&dbs3.Options{Threads: 6, Strategy: "lpt", JoinAlgo: "nested-loop"})
		if err != nil {
			log.Fatal(err)
		}
		for rows.Next() {
		}
		if err := rows.Err(); err != nil {
			log.Fatal(err)
		}
		foot := rows.Footer()
		sizes, _ := db.FragmentSizes("A")
		maxFrag := 0
		for _, s := range sizes {
			if s > maxFrag {
				maxFrag = s
			}
		}
		var join dbs3.OperatorStats
		for _, op := range foot.Operators {
			if op.Name == "join" {
				join = op
			}
		}
		fmt.Printf("  d=%3d: %d rows, join pool=%d threads over %d instances, largest fragment=%d tuples\n",
			d, foot.RowCount, join.Threads, join.Instances, maxFrag)
	}
}
