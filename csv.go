package dbs3

import (
	"fmt"
	"io"
	"strings"

	"dbs3/internal/partition"
	"dbs3/internal/relation"
)

// LoadCSV reads a relation from CSV (header row of "name:TYPE" column specs,
// TYPE = INT or STRING) and registers it hash-partitioned on key into degree
// fragments. User data enters the engine exactly like the generated
// benchmarks: statically partitioned into a region of its own, ready for
// parallel plans; nothing of what the file was read into stays live.
func (db *Database) LoadCSV(name string, r io.Reader, key string, degree int) error {
	rel, err := relation.ReadCSV(name, r)
	if err != nil {
		return err
	}
	h, err := partition.NewHash(rel.Schema, []string{key}, degree)
	if err != nil {
		return err
	}
	p, err := partition.Partition(rel, h, 1)
	if err != nil {
		return err
	}
	return db.register(placed{p, h})
}

// DumpCSV writes a registered relation as CSV.
func (db *Database) DumpCSV(name string, w io.Writer) error {
	db.mu.RLock()
	p, ok := db.rels[name]
	db.mu.RUnlock()
	if !ok {
		return fmt.Errorf("dbs3: no relation %q", name)
	}
	return p.Union().WriteCSV(w)
}

// String renders the materialized result as an aligned text table with the
// Footer's statistics below it.
func (r *Result) String() string {
	var b strings.Builder
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Data))
	for ri, row := range r.Data {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := fmt.Sprint(v)
			cells[ri][ci] = s
			if len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	writeRow := func(vals []string) {
		for i, v := range vals {
			if i > 0 {
				b.WriteString(" | ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], v)
		}
		b.WriteString("\n")
	}
	writeRow(r.Columns)
	for _, row := range cells {
		writeRow(row)
	}
	b.WriteString(r.Footer.String())
	return b.String()
}
