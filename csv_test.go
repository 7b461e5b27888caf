package dbs3

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"dbs3/internal/core"
)

const ordersCSV = `order:INT,customer:STRING,amount:INT
1,ann,100
2,bob,250
3,ann,50
4,eve,75
5,bob,25
6,ann,10
`

func TestLoadCSVAndQuery(t *testing.T) {
	db := New()
	if err := db.LoadCSV("orders", strings.NewReader(ordersCSV), "order", 3); err != nil {
		t.Fatal(err)
	}
	if card := db.settled()["orders"].Cardinality(); card != 6 {
		t.Fatalf("cardinality = %d", card)
	}
	rows, err := db.QueryAllContext(context.Background(), "SELECT customer, SUM(amount) FROM orders GROUP BY customer", nil)
	if err != nil {
		t.Fatal(err)
	}
	sums := map[string]int64{}
	for _, r := range rows.Data {
		sums[r[0].(string)] = r[1].(int64)
	}
	want := map[string]int64{"ann": 160, "bob": 275, "eve": 75}
	for k, v := range want {
		if sums[k] != v {
			t.Errorf("sum[%s] = %d, want %d", k, sums[k], v)
		}
	}
}

func TestLoadCSVErrors(t *testing.T) {
	db := New()
	if err := db.LoadCSV("x", strings.NewReader("bad header\n"), "k", 2); err == nil {
		t.Error("bad csv accepted")
	}
	if err := db.LoadCSV("x", strings.NewReader(ordersCSV), "absent", 2); err == nil {
		t.Error("bad key accepted")
	}
}

// TestLoadCSVHeaderOnly: a file with a header and no rows loads into an empty
// region, answers a query with no rows, and shards.
func TestLoadCSVHeaderOnly(t *testing.T) {
	db := New()
	if err := db.LoadCSV("empty", strings.NewReader("k:INT,s:STRING\n"), "k", 4); err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryAllContext(context.Background(), "SELECT k, s FROM empty", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 0 {
		t.Errorf("SELECT over an empty import returned %d rows", len(rows.Data))
	}
	if err := db.ShardRelation("empty", "k", 1, 3); err != nil {
		t.Fatal(err)
	}
	if sizes, err := db.FragmentSizes("empty"); err != nil || len(sizes) != 4 {
		t.Errorf("empty shard FragmentSizes = %v, %v; want 4 empty fragments", sizes, err)
	}
}

// TestEmptyImportGetsOneThread: a header-only import is an empty relation,
// and scanning it is worth step 1's one thread however many fragments it
// has. The plan runs two pools, filter and projection (the store runs in
// the projection's), each floored at one thread.
func TestEmptyImportGetsOneThread(t *testing.T) {
	db := New()
	if err := db.LoadCSV("empty", strings.NewReader("k:INT,s:STRING\n"), "k", 8); err != nil {
		t.Fatal(err)
	}
	prep, err := db.prepare("SELECT k, s FROM empty WHERE k > 0", nil)
	if err != nil {
		t.Fatal(err)
	}
	rels, _ := db.snapshotRels()
	alloc, err := core.PlanAllocation(prep.plan, rels, core.Options{Processors: 64})
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Total != 2 {
		t.Errorf("empty relation planned %d threads, want 2", alloc.Total)
	}
}

func TestDumpCSVRoundTrip(t *testing.T) {
	db := New()
	if err := db.LoadCSV("orders", strings.NewReader(ordersCSV), "order", 2); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := db.DumpCSV("orders", &buf); err != nil {
		t.Fatal(err)
	}
	db2 := New()
	if err := db2.LoadCSV("orders", strings.NewReader(buf.String()), "order", 4); err != nil {
		t.Fatal(err)
	}
	if card := db2.settled()["orders"].Cardinality(); card != 6 {
		t.Errorf("round trip cardinality = %d", card)
	}
	if err := db.DumpCSV("absent", &buf); err == nil {
		t.Error("missing relation accepted")
	}
}

func TestResultString(t *testing.T) {
	db := New()
	if err := db.LoadCSV("orders", strings.NewReader(ordersCSV), "order", 2); err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryAllContext(context.Background(), "SELECT customer, amount FROM orders WHERE amount > 60", &Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	out := rows.String()
	for _, want := range []string{"customer", "amount", "ann", "(3 rows, 2 threads)", "filter", "store"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// TestTupleLargerThanBlockSpills: a memory grant changes cost, never
// answers, whatever the tuple size. Rows of 10 KB text — each larger than a
// spill block — answer a scan and a GROUP BY over the text under a grant
// small enough to spill both the store and the aggregate exactly as they do
// unbudgeted, and leave nothing in the spill directory.
func TestTupleLargerThanBlockSpills(t *testing.T) {
	var csv strings.Builder
	csv.WriteString("k:INT,doc:STRING\n")
	for i := range 200 {
		fmt.Fprintf(&csv, "%d,%s\n", i, strings.Repeat(fmt.Sprintf("%05d", i%50), 2000))
	}
	db := New()
	if err := db.LoadCSV("docs", strings.NewReader(csv.String()), "k", 4); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{"SELECT * FROM docs", "SELECT doc, COUNT(*) FROM docs GROUP BY doc"} {
		want, err := db.QueryAllContext(context.Background(), sql, nil)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		got, err := db.QueryAllContext(context.Background(), sql, &Options{MemoryBudget: 64 << 10, Materialize: true, SpillDir: dir})
		if err != nil {
			t.Fatalf("%s under a 64 KiB grant: %v", sql, err)
		}
		if got.SpilledBytes == 0 {
			t.Errorf("%s: nothing spilled under a 64 KiB grant", sql)
		}
		if rowSet(got.Data) != rowSet(want.Data) {
			t.Errorf("%s: %d rows under the grant, %d without; the answers differ", sql, len(got.Data), len(want.Data))
		}
		if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
			t.Errorf("%s: %d entries left in the spill directory (%v)", sql, len(ents), err)
		}
	}
}
