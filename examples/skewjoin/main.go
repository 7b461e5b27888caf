// Skew handling: the paper's Experiment 1 (§5.4) end to end. For each skew
// level the example (a) executes the joins on the real goroutine engine to
// verify the answers are identical under every strategy, and (b) predicts
// the KSR1 response times with the calibrated simulator — the deterministic
// reproduction of Figures 12-13, independent of how many cores this host
// has.
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
	degree  = 200
	threads = 10
)

func main() {
	fmt.Printf("A=%d, B'=%d, d=%d, %d threads (paper Figures 12-13)\n\n", aCard, bCard, degree, threads)
	fmt.Println("theta | ideal/random (s) | ideal/lpt (s) | assoc/random (s)")
	for _, theta := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0} {
		idealRandom, err := dbs3.PredictIdealJoin(aCard, bCard, degree, threads, theta, "random")
		if err != nil {
			log.Fatal(err)
		}
		idealLPT, err := dbs3.PredictIdealJoin(aCard, bCard, degree, threads, theta, "lpt")
		if err != nil {
			log.Fatal(err)
		}
		assoc, err := dbs3.PredictAssocJoin(aCard, bCard, degree, threads, theta, "random")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%5.1f | %16.2f | %13.2f | %16.2f\n", theta, idealRandom, idealLPT, assoc)
	}
	fmt.Println("\nShape check (paper): Random grows with theta, LPT stays flat until")
	fmt.Println("theta=0.8, AssocJoin is insensitive to skew.")

	// Now verify on the real engine (scaled down: this is about answers,
	// not wall time) that strategy and plan shape never change the result.
	fmt.Println("\nVerifying result equivalence on the real engine...")
	db := dbs3.New()
	if err := db.CreateJoinPair("", 20_000, 2_000, 40, 1); err != nil {
		log.Fatal(err)
	}
	counts := map[string]int{}
	for _, cfg := range []struct {
		name string
		sql  string
		opt  *dbs3.Options
	}{
		{"ideal/random", "SELECT * FROM A JOIN B ON A.k = B.k", &dbs3.Options{Threads: 6, Strategy: "random", JoinAlgo: "nested-loop"}},
		{"ideal/lpt", "SELECT * FROM A JOIN B ON A.k = B.k", &dbs3.Options{Threads: 6, Strategy: "lpt", JoinAlgo: "nested-loop"}},
		{"assoc/random", "SELECT * FROM A JOIN Br ON A.k = Br.k", &dbs3.Options{Threads: 6, Strategy: "random", JoinAlgo: "hash"}},
	} {
		// Stream the result and count: the cursor never holds the 20K join
		// rows in memory at once.
		rows, err := db.QueryContext(context.Background(), cfg.sql, cfg.opt)
		if err != nil {
			log.Fatal(err)
		}
		n := 0
		for rows.Next() {
			n++
		}
		if err := rows.Err(); err != nil {
			log.Fatal(err)
		}
		counts[cfg.name] = n
	}
	for name, n := range counts {
		status := "ok"
		if n != 20_000 {
			status = "WRONG"
		}
		fmt.Printf("  %-13s %d rows %s\n", name, n, status)
	}
}
