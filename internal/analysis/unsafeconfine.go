package analysis

import (
	"path/filepath"
	"slices"
	"strings"
)

// unsafeHomes are the two files allowed to import "unsafe", as slash path
// suffixes: value.go packs a string's data pointer and length into the
// two-word relation.Value by hand, region.go stores the addresses inside a
// base relation's block as integers and views its headers as []Tuple.
// Everything else reaches both through their methods.
var unsafeHomes = []string{"/internal/relation/value.go", "/internal/relation/region.go"}

// UnsafeConfine keeps package unsafe inside those two files. The 16-byte
// Value rebuilds string headers from a raw pointer and a length, and a Region
// is memory the collector does not scan, safe only while every pointer word
// in it points into the region itself; both sets of invariants are local to
// their file and checked by its tests and by checkptr under `go test -race`.
// A third importer — test files included, which could forge Values or store
// into a region what those invariants forbid — would make them module-wide.
var UnsafeConfine = &Analyzer{
	Name: "unsafeconfine",
	Doc: "import \"unsafe\" only in internal/relation/value.go and internal/relation/region.go\n\n" +
		"relation.Value's pointer/length packing and relation.Region's pointer-free block are the module's\n" +
		"only unsafe code; their invariants are reviewable because each lives in one file. Anything else\n" +
		"that wants unsafe goes through Value and Region.",
	Run: runUnsafeConfine,
}

func runUnsafeConfine(pass *Pass) error {
	for _, f := range pass.Files {
		name := filepath.ToSlash(pass.Fset.Position(f.Package).Filename)
		if slices.ContainsFunc(unsafeHomes, func(home string) bool { return strings.HasSuffix(name, home) }) {
			continue
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"unsafe"` {
				pass.Reportf(imp.Pos(), "import of unsafe outside internal/relation/value.go and region.go: go through relation.Value's and relation.Region's methods")
			}
		}
	}
	return nil
}
