package dbs3

import (
	"context"
	"fmt"
	"testing"
)

// The Wisconsin benchmark suite [Bitton83], the workload family of the
// paper's evaluation, adapted to the ESQL subset. createWisconsinBenchmark
// generates the standard relations; wisconsinSuite returns the queries with
// their expected result cardinalities, which the tests below verify.

// suiteQuery is one query of the Wisconsin suite.
type suiteQuery struct {
	// Name identifies the query in the classic suite.
	Name string
	// SQL is the ESQL text.
	SQL string
	// ExpectRows is the exact expected result cardinality.
	ExpectRows int
}

// createWisconsinBenchmark generates the benchmark's relations: tenktup1 and
// tenktup2 of card tuples each, and bprime of card/10 tuples (whose unique2
// values are a prefix of tenktup1's, so the ABprime join returns exactly
// card/10 rows). All three are hash-partitioned on unique2 into degree
// fragments, so joins on unique2 compile to the co-located plan. card must
// be a positive multiple of 100.
func createWisconsinBenchmark(db *Database, card, degree int, seed int64) error {
	if card <= 0 || card%100 != 0 {
		return fmt.Errorf("dbs3: benchmark cardinality must be a positive multiple of 100, got %d", card)
	}
	if err := db.CreateWisconsin("tenktup1", card, degree, "unique2", seed); err != nil {
		return err
	}
	if err := db.CreateWisconsin("tenktup2", card, degree, "unique2", seed+1); err != nil {
		return err
	}
	return db.CreateWisconsin("bprime", card/10, degree, "unique2", seed+2)
}

// wisconsinSuite returns the benchmark queries for relations generated by
// createWisconsinBenchmark with the given cardinality. Deviations from the
// original suite are noted per query; updates/deletes and duplicate
// elimination are outside the reproduced engine's scope.
func wisconsinSuite(card int) []suiteQuery {
	return []suiteQuery{
		{
			Name:       "sel-1pct",
			SQL:        fmt.Sprintf("SELECT * FROM tenktup1 WHERE unique2 >= 0 AND unique2 < %d", card/100),
			ExpectRows: card / 100,
		},
		{
			Name:       "sel-10pct",
			SQL:        fmt.Sprintf("SELECT * FROM tenktup1 WHERE unique2 < %d", card/10),
			ExpectRows: card / 10,
		},
		{
			Name:       "sel-single",
			SQL:        fmt.Sprintf("SELECT * FROM tenktup1 WHERE unique2 = %d", card/2),
			ExpectRows: 1,
		},
		{
			Name:       "sel-1pct-indexedattr",
			SQL:        fmt.Sprintf("SELECT * FROM tenktup1 WHERE unique1 >= 0 AND unique1 < %d", card/100),
			ExpectRows: card / 100,
		},
		{
			// The original projects with duplicate elimination; the subset
			// keeps duplicates, so all card rows come back.
			Name:       "proj-nodedup",
			SQL:        "SELECT onePercent, stringu1 FROM tenktup1",
			ExpectRows: card,
		},
		{
			Name:       "join-ABprime",
			SQL:        "SELECT * FROM tenktup1 JOIN bprime ON tenktup1.unique2 = bprime.unique2",
			ExpectRows: card / 10,
		},
		{
			// joinAselB: the selection runs as a residual predicate after
			// the join (same answer, the subset has no pre-join filters).
			Name:       "join-AselB",
			SQL:        fmt.Sprintf("SELECT * FROM tenktup1 JOIN bprime ON tenktup1.unique2 = bprime.unique2 WHERE bprime.unique2 < %d", card/20),
			ExpectRows: card / 20,
		},
		{
			Name:       "join-tenktup2",
			SQL:        "SELECT tenktup1.unique1, tenktup2.unique1 FROM tenktup1 JOIN tenktup2 ON tenktup1.unique2 = tenktup2.unique2",
			ExpectRows: card,
		},
		{
			Name:       "agg-count-grouped",
			SQL:        "SELECT onePercent, COUNT(*) FROM tenktup1 GROUP BY onePercent",
			ExpectRows: min(card, 100),
		},
		{
			Name:       "agg-min-grouped",
			SQL:        "SELECT two, MIN(unique1) FROM tenktup1 GROUP BY two",
			ExpectRows: min(card, 2),
		},
		{
			Name:       "agg-sum-grouped",
			SQL:        "SELECT twenty, SUM(unique2) FROM tenktup1 GROUP BY twenty",
			ExpectRows: min(card, 20),
		},
	}
}

func TestWisconsinSuiteRuns(t *testing.T) {
	const card = 2000
	db := New()
	if err := createWisconsinBenchmark(db, card, 8, 7); err != nil {
		t.Fatal(err)
	}
	for _, q := range wisconsinSuite(card) {
		q := q
		t.Run(q.Name, func(t *testing.T) {
			rows, err := db.QueryAllContext(context.Background(), q.SQL, &Options{Threads: 4})
			if err != nil {
				t.Fatalf("%s: %v", q.SQL, err)
			}
			if len(rows.Data) != q.ExpectRows {
				t.Errorf("%s: %d rows, want %d", q.Name, len(rows.Data), q.ExpectRows)
			}
		})
	}
}

func TestWisconsinSuiteUnderEveryStrategy(t *testing.T) {
	const card = 1000
	db := New()
	if err := createWisconsinBenchmark(db, card, 4, 11); err != nil {
		t.Fatal(err)
	}
	for _, strat := range []string{"random", "lpt", "auto"} {
		for _, q := range wisconsinSuite(card) {
			rows, err := db.QueryAllContext(context.Background(), q.SQL, &Options{Threads: 3, Strategy: strat})
			if err != nil {
				t.Fatalf("%s/%s: %v", q.Name, strat, err)
			}
			if len(rows.Data) != q.ExpectRows {
				t.Errorf("%s/%s: %d rows, want %d", q.Name, strat, len(rows.Data), q.ExpectRows)
			}
		}
	}
}

func TestWisconsinSuiteAggregatesCorrect(t *testing.T) {
	const card = 1000
	db := New()
	if err := createWisconsinBenchmark(db, card, 4, 3); err != nil {
		t.Fatal(err)
	}
	// COUNT grouped by onePercent: 100 groups of card/100 each.
	rows, err := db.QueryAllContext(context.Background(), "SELECT onePercent, COUNT(*) FROM tenktup1 GROUP BY onePercent", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows.Data {
		if r[1].(int64) != card/100 {
			t.Errorf("group %v has count %v, want %d", r[0], r[1], card/100)
		}
	}
	// MIN(unique1) grouped by two: minima are 0 and 1.
	rows, err = db.QueryAllContext(context.Background(), "SELECT two, MIN(unique1) FROM tenktup1 GROUP BY two", nil)
	if err != nil {
		t.Fatal(err)
	}
	mins := map[int64]int64{}
	for _, r := range rows.Data {
		mins[r[0].(int64)] = r[1].(int64)
	}
	if mins[0] != 0 || mins[1] != 1 {
		t.Errorf("minima = %v, want {0:0, 1:1}", mins)
	}
}

func TestCreateWisconsinBenchmarkValidation(t *testing.T) {
	db := New()
	if err := createWisconsinBenchmark(db, 150, 4, 1); err == nil {
		t.Error("non-multiple-of-100 cardinality accepted")
	}
	if err := createWisconsinBenchmark(db, 0, 4, 1); err == nil {
		t.Error("zero cardinality accepted")
	}
}
