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
	p := db.settled()[rel]
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
		"shard.wisc":  "3897300e 8afb38c5 8b7cf2d6 6823b247 04731a75 35bf3139 56b5b8e6 1c9d700b",
		"shard.A":     "a5db0907 d79b100f be96c9e7 07d5a341 d837d405 21c49aae f2c0febe c97bcc72",
		"shard.B":     "c0bd62a6 0ce72b37 d9efe7d3 080a481d 3d16e93e 9d9afafd 88216af3 dc505971",
		"shard.Br":    "460d57f8 49373fc1 d0f9ac7f a2e373ae fe104e1a bf14711f a56ffaa2 526bb1b5",
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
