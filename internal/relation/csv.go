package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// CSV import/export for relations, so users can load their own data instead
// of generated benchmarks. The header row carries "name:TYPE" column specs
// (TYPE = INT or STRING); values round-trip losslessly.

// WriteCSV writes the relation with a typed header row.
func (r *Relation) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, r.Schema.Len())
	for i := 0; i < r.Schema.Len(); i++ {
		c := r.Schema.Column(i)
		header[i] = c.Name + ":" + c.Type.String()
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("relation: writing csv header: %w", err)
	}
	row := make([]string, r.Schema.Len())
	for _, t := range r.Tuples {
		for i, v := range t {
			row[i] = v.String()
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("relation: writing csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a relation from CSV with a typed header row.
func ReadCSV(name string, rd io.Reader) (*Relation, error) {
	cr := csv.NewReader(rd)
	// The reader's record slice is reused from row to row and every kept
	// string field is copied into the slab's arena, so no tuple pins a CSV
	// line (integer columns and all); what is left per row is the one line
	// string encoding/csv itself allocates. The header's strings are cut
	// and kept, so it is read before reuse is switched on.
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: reading csv header: %w", err)
	}
	cols := make([]Column, len(header))
	for i, h := range header {
		cname, tname, ok := strings.Cut(h, ":")
		if !ok {
			return nil, fmt.Errorf("relation: header %q needs name:TYPE form", h)
		}
		var typ Type
		switch tname {
		case "INT":
			typ = TInt
		case "STRING":
			typ = TString
		default:
			return nil, fmt.Errorf("relation: unknown column type %q in header %q", tname, h)
		}
		cols[i] = Column{Name: cname, Type: typ}
	}
	schema, err := NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	r := New(name, schema)
	cr.ReuseRecord = true
	var slab Slab
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return r, nil
		}
		if err != nil {
			return nil, fmt.Errorf("relation: csv line %d: %w", line, err)
		}
		t := slab.New(len(cols))
		for i, field := range rec {
			if cols[i].Type == TInt {
				v, err := strconv.ParseInt(field, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("relation: csv line %d column %q: %w", line, cols[i].Name, err)
				}
				t[i] = Int(v)
			} else {
				t[i] = slab.Str(field)
			}
		}
		r.Tuples = append(r.Tuples, t)
	}
}
