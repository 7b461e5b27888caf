package relation

import (
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	r := New("people", MustSchema(
		Column{Name: "id", Type: TInt},
		Column{Name: "name", Type: TString},
	))
	r.Tuples = append(r.Tuples,
		NewTuple(Int(1), Str("ann")),
		NewTuple(Int(-2), Str("with,comma")),
		NewTuple(Int(3), Str(`with "quotes"`)),
		NewTuple(Int(4), Str("")),
	)
	var buf strings.Builder
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("people", strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if !back.Schema.Equal(r.Schema) {
		t.Errorf("schema changed: %s vs %s", back.Schema, r.Schema)
	}
	if !back.EqualMultiset(r) {
		t.Errorf("tuples changed:\n%v\nvs\n%v", back.Tuples, r.Tuples)
	}
	// Order preserved too.
	for i := range r.Tuples {
		if !back.Tuples[i].Equal(r.Tuples[i]) {
			t.Fatalf("row %d reordered", i)
		}
	}
}

func TestCSVWisconsinRoundTrip(t *testing.T) {
	r := Wisconsin("A", 200, 5)
	var buf strings.Builder
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("A", strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !back.EqualMultiset(r) {
		t.Error("Wisconsin relation changed through CSV")
	}
}

// TestReadCSVErrors: each malformed input fails with an error that says why
// and, for a bad field, on which line — counted in lines of the file, which a
// quoted field spanning two of them sets apart from records.
func TestReadCSVErrors(t *testing.T) {
	for in, want := range map[string]string{
		"":                      "reading csv header",
		"id\n1":                 "name:TYPE",
		"id:FLOAT\n1":           "unknown column type",
		"id:INT\nnot-a-number":  `csv line 2 column "id"`,
		"id:INT,id:INT\n1,2":    "duplicate column",
		"id:INT,name:STRING\n1": "wrong number of fields",
		"k:INT,s:STRING\n1,\"two\nlines\"\nbad,z\n": `csv line 4 column "k"`,
	} {
		_, err := ReadCSV("x", strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ReadCSV(%q) = %v, want an error containing %q", in, err, want)
		}
	}
}

func TestReadCSVEmptyRelation(t *testing.T) {
	r, err := ReadCSV("empty", strings.NewReader("id:INT,name:STRING\n"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Cardinality() != 0 || r.Schema.Len() != 2 {
		t.Errorf("empty csv = %v", r)
	}
}
