package analysis

import (
	"go/token"
	"slices"
	"testing"
)

// TestByNameAndDiagnosticString: ByName selects the whole suite for no
// names, the named analyzers in the order given, and reports the first
// unknown name; a Diagnostic prints as "pos: analyzer: message", the line
// format every driver emits.
func TestByNameAndDiagnosticString(t *testing.T) {
	names := func(as []*Analyzer) []string {
		var out []string
		for _, a := range as {
			out = append(out, a.Name)
		}
		return out
	}
	for _, tc := range []struct {
		desc        string
		in          []string
		want        []string
		wantUnknown string
		wantOK      bool
	}{
		{"nil selects all", nil, names(All()), "", true},
		{"known names in order", []string{"lockio", "atomicfield"}, []string{"lockio", "atomicfield"}, "", true},
		{"unknown name", []string{"ctxflow", "nosuch"}, nil, "nosuch", false},
	} {
		as, unknown, ok := ByName(tc.in)
		if got := names(as); !slices.Equal(got, tc.want) || unknown != tc.wantUnknown || ok != tc.wantOK {
			t.Errorf("%s: ByName(%q) = %q, %q, %v; want %q, %q, %v",
				tc.desc, tc.in, got, unknown, ok, tc.want, tc.wantUnknown, tc.wantOK)
		}
	}

	d := Diagnostic{
		Analyzer: "lockio",
		Pos:      token.Position{Filename: "x.go", Line: 3, Column: 7},
		Message:  "blocking I/O under a lock",
	}
	if got, want := d.String(), "x.go:3:7: lockio: blocking I/O under a lock"; got != want {
		t.Errorf("Diagnostic.String() = %q, want %q", got, want)
	}
}
