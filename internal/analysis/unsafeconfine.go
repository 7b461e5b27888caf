package analysis

import (
	"path/filepath"
	"strings"
)

// unsafeHome is the one file allowed to import "unsafe", as a slash path
// suffix: the two-word relation.Value packs a string's data pointer and
// length by hand, and everything else reaches it through Value's methods.
const unsafeHome = "/internal/relation/value.go"

// UnsafeConfine keeps package unsafe inside relation.Value's file. The
// 16-byte Value rebuilds string headers from a raw pointer and a length; its
// invariants (nil pointer = integer, the length word never exceeds the
// backing) are local to that file and checked by its tests and by checkptr
// under `go test -race`. A second importer — test files included, which could
// forge Values that break those invariants — would make them module-wide.
var UnsafeConfine = &Analyzer{
	Name: "unsafeconfine",
	Doc: "import \"unsafe\" only in internal/relation/value.go\n\n" +
		"relation.Value's pointer/length packing is the module's only unsafe code; its invariants are\n" +
		"reviewable because they live in one file. Anything else that wants unsafe goes through Value.",
	Run: runUnsafeConfine,
}

func runUnsafeConfine(pass *Pass) error {
	for _, f := range pass.Files {
		name := filepath.ToSlash(pass.Fset.Position(f.Package).Filename)
		if strings.HasSuffix(name, unsafeHome) {
			continue
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"unsafe"` {
				pass.Reportf(imp.Pos(), "import of unsafe outside internal/relation/value.go: go through relation.Value's methods")
			}
		}
	}
	return nil
}
