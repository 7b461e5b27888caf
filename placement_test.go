package dbs3

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
)

// placementCSV is n rows of a signed integer key and a string key with
// repeats, so both placements see negative numbers and equal keys.
func placementCSV(n int) string {
	var b strings.Builder
	b.WriteString("id:INT,name:STRING\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d,n%d\n", i*7919%10007-5000, i*31%997)
	}
	return b.String()
}

// fragmentChecksums renders one checksum per fragment of a registered
// relation over column col: an FNV-1a fold of the column's values in fragment
// order, independent of the engine's own hashing, so it moves if any row
// changes fragment or position.
func fragmentChecksums(t *testing.T, db *Database, rel, col string) string {
	t.Helper()
	p := db.rels[rel]
	c := p.Schema.MustIndex(col)
	sums := make([]string, len(p.Fragments))
	for i, frag := range p.Fragments {
		h := fnv.New32a()
		for _, tup := range frag {
			h.Write([]byte(tup[c].String()))
			h.Write([]byte{0})
		}
		sums[i] = fmt.Sprintf("%08x", h.Sum32())
	}
	return strings.Join(sums, " ")
}

// TestPlacementUnchanged pins where the loaders and ShardRelation put every
// row: per-fragment checksums of the placing column for a generated relation
// on an integer and on a string key, a CSV import on each, and one node's
// shard of a generated and of a join-pair catalog. Every node of a cluster
// must place rows exactly as its peers, including peers built from another
// version of this code, so these constants change only with a deliberate
// change of the placement function.
func TestPlacementUnchanged(t *testing.T) {
	want := map[string]string{
		"w8.unique2":  "e287a5ce c61b1d37 5ef0bbd5 18a8356e 7df68d65 e02917b0 b7b52626 4daf50a7",
		"w5.stringu1": "569047d4 d78d671d b1d4df9d cab0114c e9c4f375",
		"csv.id":      "26590b38 9deed2a5 afdcaf32 3179441d 9ad05895 ebebd8f2 a6433486",
		"csvs.name":   "f782bd13 f79c4006 cb0f7c02 642d8bfd cf2433a1 9aab5c55 fff3e423",
		"shard.wisc":  "b053392d efb4163e bea77153 59e95cd8 ae1e6345 9caba4b3 39b8fcea 6178c5c0",
		"shard.A":     "2778d37b 0463d03c a74a7f26 ea895391 eee7389a e3853aae 2892d807 59fc19fd",
		"shard.B":     "2ff4fb3d 3f6c60c2 adbb2f59 92f4335e a2507a6e d76d8bd5 d8fb5b15 e4059f59",
		"shard.Br":    "48af4d9d 58feaff3 7794c3a3 5a618407 bd4a8095 ebf961d3 8d76efac 96c10e63",
	}
	got := map[string]string{}

	db := New()
	if err := db.CreateWisconsin("w8", 2_000, 8, "unique2", 42); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateWisconsin("w5", 2_000, 5, "stringu1", 42); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadCSV("csv", strings.NewReader(placementCSV(1_500)), "id", 7); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadCSV("csvs", strings.NewReader(placementCSV(1_500)), "name", 7); err != nil {
		t.Fatal(err)
	}
	got["w8.unique2"] = fragmentChecksums(t, db, "w8", "unique2")
	got["w5.stringu1"] = fragmentChecksums(t, db, "w5", "stringu1")
	got["csv.id"] = fragmentChecksums(t, db, "csv", "id")
	got["csvs.name"] = fragmentChecksums(t, db, "csvs", "name")

	node := New()
	if err := node.CreateWisconsin("wisc", 2_000, 8, "unique2", 42); err != nil {
		t.Fatal(err)
	}
	if err := node.CreateJoinPair("", 2_000, 240, 8, 0.5); err != nil {
		t.Fatal(err)
	}
	for _, d := range [][2]string{{"wisc", "unique2"}, {"A", "k"}, {"B", "k"}, {"Br", "k"}} {
		if err := node.ShardRelation(d[0], d[1], 1, 3); err != nil {
			t.Fatal(err)
		}
		got["shard."+d[0]] = fragmentChecksums(t, node, d[0], d[1])
	}

	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: fragment checksums\n  got  %q\n  want %q", name, got[name], w)
		}
	}
}
