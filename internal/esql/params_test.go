package esql

import (
	"context"
	"strings"
	"testing"

	"dbs3/internal/core"
	"dbs3/internal/lera"
	"dbs3/internal/relation"
)

// TestParseParams: `?` placeholders parse as ColParam predicates numbered
// left to right, anywhere a comparison literal is legal — and nowhere else.
func TestParseParams(t *testing.T) {
	cases := []struct {
		sql    string
		params int
		where  string // String() form of the parsed predicate
		errSub string // expected error substring, "" = must parse
	}{
		{sql: "SELECT * FROM A WHERE k < ?", params: 1, where: "k < ?1"},
		{sql: "SELECT * FROM A WHERE k < ? AND id = ?", params: 2, where: "(k < ?1 AND id = ?2)"},
		{sql: "SELECT * FROM A WHERE k = ? OR NOT pad = ?", params: 2, where: "(k = ?1 OR NOT pad = ?2)"},
		{sql: "SELECT * FROM A WHERE k >= ? AND k <= ?", params: 2, where: "(k >= ?1 AND k <= ?2)"},
		{sql: "SELECT * FROM A JOIN B ON A.k = B.k WHERE A.id < ?", params: 1, where: "A.id < ?1"},
		{sql: "SELECT * FROM A WHERE k <> ?", params: 1, where: "k <> ?1"},
		// A placeholder mixes freely with literals; numbering counts
		// placeholders only, not comparisons.
		{sql: "SELECT * FROM A WHERE k < 5 AND id = ? AND pad = 'x'", params: 1, where: "(k < 5 AND id = ?1 AND pad = 'x')"},
		// Positions a placeholder cannot take.
		{sql: "SELECT ? FROM A", errSub: "found \"?\""},
		{sql: "SELECT * FROM A WHERE ? < 5", errSub: "found \"?\""},
		{sql: "SELECT * FROM A WHERE k < ? ?", errSub: "trailing input"},
		{sql: "SELECT * FROM ? WHERE k < 5", errSub: "found \"?\""},
		{sql: "SELECT * FROM A JOIN B ON A.k = ?", errSub: "found \"?\""},
		{sql: "SELECT * FROM A GROUP BY ?", errSub: "found \"?\""},
	}
	for _, tc := range cases {
		q, err := Parse(tc.sql)
		if tc.errSub != "" {
			if err == nil {
				t.Errorf("%q: parsed, want error containing %q", tc.sql, tc.errSub)
			} else if !strings.Contains(err.Error(), tc.errSub) {
				t.Errorf("%q: error %q, want substring %q", tc.sql, err, tc.errSub)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.sql, err)
			continue
		}
		if q.Params != tc.params {
			t.Errorf("%q: Params = %d, want %d", tc.sql, q.Params, tc.params)
		}
		if got := q.Where.String(); got != tc.where {
			t.Errorf("%q: Where = %s, want %s", tc.sql, got, tc.where)
		}
	}
}

// Placeholder numbering in a predicate's String form is 1-based (?1, ?2);
// the underlying indices are 0-based in lexical order. This test pins the
// raw indices.
func TestParseParamIndices(t *testing.T) {
	q, err := Parse("SELECT * FROM A WHERE k < ? AND pad = ? AND id > ?")
	if err != nil {
		t.Fatal(err)
	}
	and, ok := q.Where.(lera.And)
	if !ok || len(and.Terms) != 3 {
		t.Fatalf("Where = %#v", q.Where)
	}
	for i, term := range and.Terms {
		cp, ok := term.(lera.ColParam)
		if !ok {
			t.Fatalf("term %d = %#v, want ColParam", i, term)
		}
		if cp.Index != i {
			t.Errorf("term %d has Index %d", i, cp.Index)
		}
	}
}

// TestCompileAndBindParams: a compiled placeholder plan knows its parameter
// count, rejects wrong counts and types, and executes correctly once bound —
// repeatedly, with different argument vectors, off the same compiled plan.
func TestCompileAndBindParams(t *testing.T) {
	db := testDB(t)
	c := compiler(t, db)
	plan, _, err := c.Compile("SELECT id FROM A WHERE k < ?")
	if err != nil {
		t.Fatal(err)
	}
	if n := plan.NumParams(); n != 1 {
		t.Fatalf("NumParams = %d, want 1", n)
	}

	// Count rows for two different bindings of the same plan.
	baseline := func(limit int64) int {
		res := run(t, db, "SELECT id FROM A WHERE k < "+relation.Int(limit).String())
		rel, err := res.Relation(OutputName)
		if err != nil {
			t.Fatal(err)
		}
		return rel.Cardinality()
	}
	for _, limit := range []int64{3, 7} {
		bound, err := plan.BindParams([]relation.Value{relation.Int(limit)})
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.ExecuteContext(context.Background(), bound, db.Relations(), core.Options{Threads: 4})
		if err != nil {
			t.Fatal(err)
		}
		rel, err := res.Relation(OutputName)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rel.Cardinality(), baseline(limit); got != want {
			t.Errorf("k < %d: %d rows, want %d", limit, got, want)
		}
	}
	// The template plan is untouched: it still wants its argument.
	if n := plan.NumParams(); n != 1 {
		t.Errorf("template plan mutated: NumParams = %d", n)
	}

	// Too few, too many, wrong type.
	if _, err := plan.BindParams(nil); err == nil || !strings.Contains(err.Error(), "wants 1 argument") {
		t.Errorf("too few args: %v", err)
	}
	if _, err := plan.BindParams([]relation.Value{relation.Int(1), relation.Int(2)}); err == nil || !strings.Contains(err.Error(), "wants 1 argument") {
		t.Errorf("too many args: %v", err)
	}
	if _, err := plan.BindParams([]relation.Value{relation.Str("x")}); err == nil || !strings.Contains(err.Error(), "wants INT") {
		t.Errorf("type mismatch: %v", err)
	}

	// A parameter-free plan passes through BindParams untouched (and rejects
	// stray arguments).
	plain, _, err := c.Compile("SELECT id FROM A WHERE k < 3")
	if err != nil {
		t.Fatal(err)
	}
	same, err := plain.BindParams(nil)
	if err != nil {
		t.Fatal(err)
	}
	if same != plain {
		t.Error("parameter-free plan was copied")
	}
	if _, err := plain.BindParams([]relation.Value{relation.Int(1)}); err == nil {
		t.Error("stray argument accepted")
	}
}

// TestBindParamsStringColumn: placeholders against STRING columns bind string
// arguments and type-check integer ones.
func TestBindParamsStringColumn(t *testing.T) {
	db := testDB(t)
	c := compiler(t, db)
	plan, _, err := c.Compile("SELECT id FROM A WHERE pad = ?")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.BindParams([]relation.Value{relation.Int(1)}); err == nil || !strings.Contains(err.Error(), "wants STRING") {
		t.Errorf("INT into STRING column: %v", err)
	}
	if _, err := plan.BindParams([]relation.Value{relation.Str("pad")}); err != nil {
		t.Errorf("STRING argument rejected: %v", err)
	}
}
