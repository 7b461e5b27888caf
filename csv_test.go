package dbs3

import (
	"context"
	"strings"
	"testing"
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
	if card := db.rels["orders"].Cardinality(); card != 6 {
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
	if card := db2.rels["orders"].Cardinality(); card != 6 {
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
