package esql

import "testing"

// FuzzParse drives arbitrary text through Parse and ScatterPlan, which a
// coordinator runs on the SQL of every execution: neither may panic, and
// the two must agree on whether the text is a statement and on how many
// placeholders it binds. The seeds are statements this package's tests
// parse, accepted and rejected.
func FuzzParse(f *testing.F) {
	for _, sql := range []string{
		"SELECT * FROM A WHERE k < 10",
		"SELECT A.id, B.id FROM A JOIN B ON A.k = B.k",
		"SELECT k, COUNT(*) FROM A GROUP BY k",
		"SELECT k, SUM(id) FROM A WHERE id < 4 GROUP BY k",
		"SELECT k, MIN(id) FROM A GROUP BY k",
		"SELECT two, four, MAX(unique1) FROM wisc GROUP BY two, four",
		"SELECT * FROM A WHERE k = 1 OR k = 2 AND NOT (id > 5)",
		"SELECT * FROM A WHERE NOT (id < 10) AND (k = 0 OR k = 1)",
		"SELECT * FROM A WHERE pad = 'a'",
		"SELECT * FROM Br JOIN A ON Br.k = A.k JOIN B ON A.k = B.k",
		"SELECT B.k, COUNT(*) FROM A JOIN B ON A.k = B.k GROUP BY B.k",
		"SELECT * FROM A WHERE k < ? AND id = ?",
		"SELECT * FROM A WHERE k = ? OR NOT pad = ?",
		"SELECT * FROM A WHERE k <> ?",
		"SELECT ten, SUM(unique1) FROM wisc WHERE two = ? GROUP BY ten",
		"SELECT * FROM A WHERE k < 5 AND id = ? AND pad = 'x'",
		"SELECT ? FROM A",
		"SELECT * FROM A WHERE k < ? ?",
		"SELECT COUNT(*) FROM A",
		"SELECT MIN(k, id) FROM A GROUP BY k",
		"SELECT * FROM A WHERE k = 99999999999999999999",
		"SELECT * FROM A WHERE (k = 1",
		"SELECT 'unterminated",
		"SELECT #",
		"",
	} {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		q, perr := Parse(sql)
		spec, serr := ScatterPlan(sql)
		if (perr == nil) != (serr == nil) {
			t.Fatalf("%q: Parse error %v, ScatterPlan error %v", sql, perr, serr)
		}
		if perr == nil && spec.Params != q.Params {
			t.Fatalf("%q: ScatterPlan binds %d placeholders, Parse %d", sql, spec.Params, q.Params)
		}
	})
}
