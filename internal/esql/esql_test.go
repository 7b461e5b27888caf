package esql

import (
	"context"
	"strings"
	"testing"

	"dbs3/internal/core"
	"dbs3/internal/lera"
	"dbs3/internal/relation"
	"dbs3/internal/workload"
)

func compiler(t *testing.T, db *workload.JoinDB) *Compiler {
	t.Helper()
	return &Compiler{Resolver: db.Resolver(), JoinAlgo: lera.HashJoin}
}

func testDB(t *testing.T) *workload.JoinDB {
	t.Helper()
	db, err := workload.NewJoinDB(1000, 100, 10, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func run(t *testing.T, db *workload.JoinDB, sql string) *core.Result {
	t.Helper()
	c := compiler(t, db)
	plan, _, err := c.Compile(sql)
	if err != nil {
		t.Fatalf("compile %q: %v", sql, err)
	}
	res, err := core.ExecuteContext(context.Background(), plan, db.Relations(), core.Options{Threads: 4})
	if err != nil {
		t.Fatalf("execute %q: %v", sql, err)
	}
	return res
}

func TestLexer(t *testing.T) {
	toks, err := lex("SELECT a.b, c FROM t WHERE x <= -5 AND s = 'hi'")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		texts = append(texts, tok.text)
	}
	want := "SELECT a . b , c FROM t WHERE x <= -5 AND s = hi "
	if got := strings.Join(texts, " "); got != want {
		t.Errorf("tokens = %q, want %q", got, want)
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := lex("SELECT 'unterminated"); err == nil {
		t.Error("unterminated string accepted")
	}
	if _, err := lex("SELECT #"); err == nil {
		t.Error("bad character accepted")
	}
}

func TestParseSelectStar(t *testing.T) {
	q, err := Parse("SELECT * FROM A WHERE k < 10")
	if err != nil {
		t.Fatal(err)
	}
	if !q.Star || q.From != "A" || q.Where == nil {
		t.Errorf("parsed %+v", q)
	}
}

func TestParseJoin(t *testing.T) {
	q, err := Parse("SELECT A.id, B.id FROM A JOIN B ON A.k = B.k")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Joins) != 1 || q.Joins[0].Table != "B" || q.Joins[0].LeftCol.String() != "A.k" {
		t.Errorf("parsed %+v", q.Joins)
	}
	if len(q.Cols) != 2 {
		t.Errorf("cols = %v", q.Cols)
	}
}

func TestParseGroupBy(t *testing.T) {
	q, err := Parse("SELECT k, COUNT(*) FROM A GROUP BY k")
	if err != nil {
		t.Fatal(err)
	}
	if q.Agg == nil || q.Agg.Kind != lera.AggCount || len(q.GroupBy) != 1 {
		t.Errorf("parsed %+v", q)
	}
	q2, err := Parse("SELECT k, SUM(id) FROM A GROUP BY k")
	if err != nil {
		t.Fatal(err)
	}
	if q2.Agg.Kind != lera.AggSum || q2.Agg.Col != "id" {
		t.Errorf("parsed %+v", q2.Agg)
	}
}

func TestParsePredicatePrecedence(t *testing.T) {
	q, err := Parse("SELECT * FROM A WHERE k = 1 OR k = 2 AND NOT (id > 5)")
	if err != nil {
		t.Fatal(err)
	}
	or, ok := q.Where.(lera.Or)
	if !ok || len(or.Terms) != 2 {
		t.Fatalf("top level should be OR: %v", q.Where)
	}
	if _, ok := or.Terms[1].(lera.And); !ok {
		t.Errorf("AND should bind tighter than OR: %v", or.Terms[1])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT * FROM",
		"SELECT * FROM A WHERE",
		"SELECT * FROM A extra",
		"SELECT * FROM A WHERE k !! 3",
		"SELECT COUNT(*) FROM A",                  // aggregate without GROUP BY
		"SELECT k FROM A GROUP BY k",              // GROUP BY without aggregate
		"SELECT COUNT(k) FROM A GROUP BY k",       // COUNT takes *
		"SELECT * FROM A JOIN B ON k = B.k",       // unqualified join column
		"SELECT * FROM A JOIN B ON A.k = B.k AND", // trailing AND
		"SELECT SUM(*) FROM A GROUP BY k",
		"SELECT MIN(k, id) FROM A GROUP BY k",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

func TestCompileSelection(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "SELECT * FROM A WHERE id < 100")
	rel, err := res.Relation(OutputName)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Cardinality() != 100 {
		t.Errorf("selected %d tuples, want 100", rel.Cardinality())
	}
}

func TestCompileProjection(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "SELECT id FROM A WHERE id < 50")
	rel, _ := res.Relation(OutputName)
	if rel.Cardinality() != 50 || rel.Schema.Len() != 1 || rel.Schema.Column(0).Name != "id" {
		t.Errorf("projection = %s [%d]", rel.Schema, rel.Cardinality())
	}
}

func TestCompileIdealJoinShape(t *testing.T) {
	db := testDB(t)
	c := compiler(t, db)
	// A and B are both partitioned on k: expect a triggered (bound) join,
	// no transmit node.
	_, g, err := c.Compile("SELECT * FROM A JOIN B ON A.k = B.k")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes {
		if n.Kind == lera.OpTransmit {
			t.Error("co-partitioned join should not need a transmit")
		}
		if n.Kind == lera.OpJoin && n.ProbeRel == "" {
			t.Error("co-partitioned join should be triggered")
		}
	}
	res := run(t, db, "SELECT * FROM A JOIN B ON A.k = B.k")
	rel, _ := res.Relation(OutputName)
	if rel.Cardinality() != db.ExpectedJoinCount() {
		t.Errorf("join returned %d tuples, want %d", rel.Cardinality(), db.ExpectedJoinCount())
	}
}

func TestCompileAssocJoinShape(t *testing.T) {
	db := testDB(t)
	c := compiler(t, db)
	// Br is partitioned on id, not on k: the compiler must stream it.
	_, g, err := c.Compile("SELECT * FROM A JOIN Br ON A.k = Br.k")
	if err != nil {
		t.Fatal(err)
	}
	hasTransmit := false
	for _, n := range g.Nodes {
		if n.Kind == lera.OpTransmit {
			hasTransmit = true
			if n.Rel != "Br" {
				t.Errorf("transmit reads %q, want Br", n.Rel)
			}
		}
	}
	if !hasTransmit {
		t.Fatal("non-co-located join must redistribute")
	}
	res := run(t, db, "SELECT * FROM A JOIN Br ON A.k = Br.k")
	rel, _ := res.Relation(OutputName)
	if rel.Cardinality() != db.ExpectedJoinCount() {
		t.Errorf("join returned %d tuples, want %d", rel.Cardinality(), db.ExpectedJoinCount())
	}
}

func TestCompileAssocJoinStreamLeft(t *testing.T) {
	db := testDB(t)
	// Swapped: FROM Br JOIN A — the planner must still build on A.
	res := run(t, db, "SELECT * FROM Br JOIN A ON Br.k = A.k")
	rel, _ := res.Relation(OutputName)
	if rel.Cardinality() != db.ExpectedJoinCount() {
		t.Errorf("join returned %d tuples, want %d", rel.Cardinality(), db.ExpectedJoinCount())
	}
}

func TestCompileJoinWithResidualWhere(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "SELECT * FROM A JOIN B ON A.k = B.k WHERE A.id < 100")
	rel, _ := res.Relation(OutputName)
	if rel.Cardinality() != 100 {
		t.Errorf("filtered join returned %d tuples, want 100", rel.Cardinality())
	}
	// Qualified columns of the streamed side must also resolve.
	res2 := run(t, db, "SELECT * FROM A JOIN Br ON A.k = Br.k WHERE Br.id < 70 AND A.id >= 0")
	rel2, _ := res2.Relation(OutputName)
	// Each Br id < 70 matches... A tuples whose key equals that Br key; the
	// oracle: result keys are A-side unique ids with matching B id < 70.
	if rel2.Cardinality() == 0 || rel2.Cardinality() >= db.ExpectedJoinCount() {
		t.Errorf("residual filter had no effect: %d", rel2.Cardinality())
	}
}

func TestCompileJoinProjection(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "SELECT A.id, B.id FROM A JOIN B ON A.k = B.k WHERE A.id < 10")
	rel, _ := res.Relation(OutputName)
	if rel.Schema.Len() != 2 {
		t.Fatalf("schema = %s", rel.Schema)
	}
	if rel.Cardinality() != 10 {
		t.Errorf("returned %d tuples", rel.Cardinality())
	}
}

func TestCompileGroupBy(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "SELECT k, COUNT(*) FROM A GROUP BY k")
	rel, _ := res.Relation(OutputName)
	// A has 100 distinct keys (one per B tuple).
	if rel.Cardinality() != 100 {
		t.Errorf("got %d groups, want 100", rel.Cardinality())
	}
	var total int64
	for _, tup := range rel.Tuples {
		total += tup[1].AsInt()
	}
	if total != 1000 {
		t.Errorf("counts sum to %d, want 1000", total)
	}
}

func TestCompileGroupBySum(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "SELECT k, SUM(id) FROM A WHERE id < 4 GROUP BY k")
	rel, _ := res.Relation(OutputName)
	var total int64
	for _, tup := range rel.Tuples {
		total += tup[1].AsInt()
	}
	if total != 0+1+2+3 {
		t.Errorf("sum = %d, want 6", total)
	}
}

func TestCompileErrors(t *testing.T) {
	db := testDB(t)
	c := compiler(t, db)
	bad := []string{
		"SELECT * FROM Missing",
		"SELECT nope FROM A",
		"SELECT * FROM A WHERE nope = 1",
		"SELECT * FROM A JOIN B ON A.k = B.k WHERE C.id = 1",
		"SELECT * FROM Br JOIN Br2 ON Br.k = Br2.k",
		"SELECT * FROM A JOIN B ON A.nope = B.k",
		"SELECT k FROM A JOIN B ON A.k = B.k", // ambiguous k after join
		// Plain select-list columns of an aggregate must be grouping columns.
		"SELECT nosuch, COUNT(*) FROM A GROUP BY k",
		"SELECT A.id, COUNT(*) FROM A JOIN B ON A.k = B.k GROUP BY A.k",
	}
	for _, sql := range bad {
		if _, _, err := c.Compile(sql); err == nil {
			t.Errorf("Compile(%q) should fail", sql)
		}
	}
}

func TestCompileRejectsNonColocatedJoin(t *testing.T) {
	db := testDB(t)
	c := compiler(t, db)
	// Join on id: neither side is partitioned on id... Br is! Join Br to
	// itself is rejected above; join A to B on id has no co-located side.
	if _, _, err := c.Compile("SELECT * FROM A JOIN B ON A.id = B.id"); err == nil {
		t.Error("join with no co-located side should fail in this subset")
	}
}

func TestExplainDot(t *testing.T) {
	db := testDB(t)
	c := compiler(t, db)
	_, g, err := c.Compile("SELECT * FROM A JOIN Br ON A.k = Br.k")
	if err != nil {
		t.Fatal(err)
	}
	dot := g.Dot()
	if !strings.Contains(dot, "transmit") || !strings.Contains(dot, "join") {
		t.Errorf("dot output incomplete:\n%s", dot)
	}
}

func TestUnqualifiedColumnResolution(t *testing.T) {
	db := testDB(t)
	// pad collides between A and B; id does too; but a WHERE on the bare
	// name must be rejected as ambiguous while table-qualified names work.
	c := compiler(t, db)
	if _, _, err := c.Compile("SELECT * FROM A JOIN B ON A.k = B.k WHERE id < 5"); err == nil {
		t.Error("ambiguous bare column accepted")
	}
	if _, _, err := c.Compile("SELECT * FROM A JOIN B ON A.k = B.k WHERE A.id < 5"); err != nil {
		t.Errorf("qualified column rejected: %v", err)
	}
}

var _ = relation.Int

func TestParseMinMaxAndColCol(t *testing.T) {
	q, err := Parse("SELECT k, MIN(id) FROM A GROUP BY k")
	if err != nil {
		t.Fatal(err)
	}
	if q.Agg.Kind != lera.AggMin || q.Agg.Col != "id" {
		t.Errorf("MIN parsed as %+v", q.Agg)
	}
	q, err = Parse("SELECT k, MAX(id) FROM A GROUP BY k")
	if err != nil {
		t.Fatal(err)
	}
	if q.Agg.Kind != lera.AggMax {
		t.Errorf("MAX parsed as %+v", q.Agg)
	}
	// Column-to-column comparisons with every operator.
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
		sql := "SELECT * FROM A WHERE k " + op + " id"
		if _, err := Parse(sql); err != nil {
			t.Errorf("Parse(%q): %v", sql, err)
		}
	}
	// String literal comparison.
	q, err = Parse("SELECT * FROM A WHERE pad = 'a'")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q.Where.(lera.ColConst); !ok {
		t.Errorf("string comparison parsed as %T", q.Where)
	}
}

func TestParseJoinClauseErrors(t *testing.T) {
	bad := []string{
		"SELECT * FROM A JOIN",
		"SELECT * FROM A JOIN B",
		"SELECT * FROM A JOIN B ON",
		"SELECT * FROM A JOIN B ON A.k",
		"SELECT * FROM A JOIN B ON A.k = ",
		"SELECT * FROM A JOIN B ON A.k < B.k",
		"SELECT * FROM A WHERE k = ",
		"SELECT * FROM A WHERE k = 99999999999999999999",
		"SELECT * FROM A WHERE (k = 1",
		"SELECT * FROM A GROUP",
		"SELECT * FROM A.",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

func TestCompileColColPredicate(t *testing.T) {
	db := testDB(t)
	// k = id holds for tuples whose key equals their id; runs end to end.
	res := run(t, db, "SELECT * FROM A WHERE k = id")
	rel, _ := res.Relation(OutputName)
	kIdx := workload.JoinSchema.MustIndex("k")
	idIdx := workload.JoinSchema.MustIndex("id")
	for _, tup := range rel.Tuples {
		if tup[kIdx].AsInt() != tup[idIdx].AsInt() {
			t.Fatalf("predicate violated by %v", tup)
		}
	}
	// NOT / OR nesting through the compiler.
	res = run(t, db, "SELECT * FROM A WHERE NOT (id < 10) AND (k = 0 OR k = 1)")
	rel, _ = res.Relation(OutputName)
	for _, tup := range rel.Tuples {
		if tup[idIdx].AsInt() < 10 {
			t.Fatalf("NOT clause violated by %v", tup)
		}
	}
}

func TestCompileJoinGroupBy(t *testing.T) {
	db := testDB(t)
	// Grouped aggregate over a join output with qualified group column.
	res := run(t, db, "SELECT B.k, COUNT(*) FROM A JOIN B ON A.k = B.k GROUP BY B.k")
	rel, _ := res.Relation(OutputName)
	if rel.Cardinality() != 100 {
		t.Fatalf("groups = %d, want 100 (distinct B keys)", rel.Cardinality())
	}
	var total int64
	for _, tup := range rel.Tuples {
		total += tup[1].AsInt()
	}
	if total != int64(db.ExpectedJoinCount()) {
		t.Errorf("counts sum to %d, want %d", total, db.ExpectedJoinCount())
	}
}

func TestCompileThreeWayJoin(t *testing.T) {
	db := testDB(t)
	// Br streams into A (co-partitioned on k), then the stream joins B
	// (also partitioned on k): every A tuple matches one Br and one B
	// tuple, so the result has exactly ACard rows.
	res := run(t, db, "SELECT * FROM Br JOIN A ON Br.k = A.k JOIN B ON A.k = B.k")
	rel, _ := res.Relation(OutputName)
	if rel.Cardinality() != db.ExpectedJoinCount() {
		t.Fatalf("3-way join returned %d rows, want %d", rel.Cardinality(), db.ExpectedJoinCount())
	}
	// All three key columns agree on every row.
	ak := rel.Schema.MustIndex("A.k")
	brk := rel.Schema.MustIndex("probe.k")
	bk := rel.Schema.MustIndex("k") // B's columns stay bare (no collision)
	for _, tup := range rel.Tuples {
		if tup[ak].AsInt() != tup[brk].AsInt() || tup[ak].AsInt() != tup[bk].AsInt() {
			t.Fatalf("keys disagree in %v", tup)
		}
	}
}

func TestCompileThreeWayJoinWithWhereAndProjection(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "SELECT A.id FROM Br JOIN A ON Br.k = A.k JOIN B ON A.k = B.k WHERE A.id < 25")
	rel, _ := res.Relation(OutputName)
	if rel.Cardinality() != 25 {
		t.Fatalf("filtered 3-way join = %d rows, want 25", rel.Cardinality())
	}
	if rel.Schema.Len() != 1 {
		t.Errorf("projection schema = %s", rel.Schema)
	}
}

func TestCompileMultiJoinErrors(t *testing.T) {
	db := testDB(t)
	c := compiler(t, db)
	bad := []string{
		// Second join references no already-joined table.
		"SELECT * FROM A JOIN B ON A.k = B.k JOIN Br ON Br.k = Br.id",
		// Table joined twice.
		"SELECT * FROM A JOIN B ON A.k = B.k JOIN B ON A.k = B.k",
		// New table not partitioned on its join column (Br is on id).
		"SELECT * FROM A JOIN B ON A.k = B.k JOIN Br ON A.k = Br.k",
	}
	for _, sql := range bad {
		if _, _, err := c.Compile(sql); err == nil {
			t.Errorf("Compile(%q) should fail", sql)
		}
	}
	// A legal variant of the last: join Br on id against... A.id is not a
	// partitioning key of Br? Br IS partitioned on id, so joining the
	// stream's A.id to Br.id works.
	if _, _, err := c.Compile("SELECT * FROM A JOIN B ON A.k = B.k JOIN Br ON A.id = Br.id"); err != nil {
		t.Errorf("stream-to-Br join on id should compile: %v", err)
	}
}

// TestCompileMaterialize: the Materialize compiler splits a statement into
// two pipeline chains around an explicit stage store, and the split changes
// no answers.
func TestCompileMaterialize(t *testing.T) {
	db := testDB(t)
	for _, sql := range []string{
		"SELECT id FROM A WHERE k < 5",
		"SELECT k, COUNT(*) FROM A GROUP BY k",
		"SELECT * FROM A JOIN B ON A.k = B.k WHERE A.id < 200",
	} {
		c := compiler(t, db)
		c.Materialize = true
		plan, _, err := c.Compile(sql)
		if err != nil {
			t.Fatalf("compile %q: %v", sql, err)
		}
		if len(plan.Chains) != 2 {
			t.Errorf("%q compiled to %d chains, want 2", sql, len(plan.Chains))
		}
		if _, ok := plan.Outputs[StageName]; !ok {
			t.Errorf("%q has no stage output: %v", sql, plan.Outputs)
		}
		res, err := core.ExecuteContext(context.Background(), plan, db.Relations(), core.Options{Threads: 4})
		if err != nil {
			t.Fatalf("execute %q: %v", sql, err)
		}
		plain := run(t, db, sql)
		got, err := res.Relation(OutputName)
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain.Relation(OutputName)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cardinality() != want.Cardinality() {
			t.Errorf("%q: materialized plan returned %d rows, plain %d", sql, got.Cardinality(), want.Cardinality())
		}
	}
}
