// Command dbs3lint runs the repo's concurrency-invariant analyzers
// (internal/analysis) over Go packages. Two modes:
//
// Standalone (the usual one):
//
//	go run ./cmd/dbs3lint ./...
//	go run ./cmd/dbs3lint -analyzers lockio,ctxflow ./internal/cluster
//
// Loads the named packages — test files included unless -tests=false —
// type-checks them against the build cache's export data, and prints one
// line per finding. Exit status: 0 clean, 1 findings, 2 operational error.
//
// Vet tool (per-package, driven by the go command's cache):
//
//	go vet -vettool=$(go env GOPATH)/bin/dbs3lint ./...
//
// Implements the unitchecker protocol by hand: `-V=full` for the content
// hash, then one invocation per package with the vet config file as the
// sole argument. Suppression in both modes is the
// //dbs3lint:ignore <analyzer> <reason> directive.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"runtime"
	"strings"

	"dbs3/internal/analysis"
)

func main() {
	// The go command probes vet tools with -V=full (content hash) and
	// -flags (supported analyzer flags; dbs3lint exposes none through
	// vet) before the per-package invocations.
	if len(os.Args) == 2 && strings.HasPrefix(os.Args[1], "-V") {
		fmt.Println("dbs3lint version v1.0.0-dbs3")
		return
	}
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		fmt.Println("[]")
		return
	}
	// A single *.cfg argument is the vet-tool calling convention.
	if len(os.Args) == 2 && strings.HasSuffix(os.Args[1], ".cfg") {
		os.Exit(vetMode(os.Args[1]))
	}
	os.Exit(standalone())
}

func standalone() int {
	var (
		tests = flag.Bool("tests", true, "analyze _test.go files and _test packages too")
		names = flag.String("analyzers", "", "comma-separated subset of analyzers to run (default all)")
		list  = flag.Bool("list", false, "list analyzers and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: dbs3lint [flags] [packages]\n\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), "\nanalyzers:\n")
		printAnalyzers(flag.CommandLine.Output())
	}
	flag.Parse()

	if *list {
		printAnalyzers(os.Stdout)
		return 0
	}
	var sel []string
	if *names != "" {
		sel = strings.Split(*names, ",")
	}
	analyzers, unknown, ok := analysis.ByName(sel)
	if !ok {
		fmt.Fprintf(os.Stderr, "dbs3lint: unknown analyzer %q\n", unknown)
		return 2
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dbs3lint: %v\n", err)
		return 2
	}
	pkgs, err := analysis.Load(wd, *tests, flag.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dbs3lint: %v\n", err)
		return 2
	}
	diags, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dbs3lint: %v\n", err)
		return 2
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "dbs3lint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

func printAnalyzers(w io.Writer) {
	for _, a := range analysis.All() {
		doc, _, _ := strings.Cut(a.Doc, "\n")
		fmt.Fprintf(w, "  %-13s %s\n", a.Name, doc)
	}
}

// vetConfig is the JSON the go command writes for each package when
// invoking a -vettool (the unitchecker protocol).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func vetMode(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dbs3lint: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "dbs3lint: %s: %v\n", cfgPath, err)
		return 1
	}
	// The go command requires the facts file to exist even though the
	// dbs3 analyzers exchange none.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "dbs3lint: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	testFiles := make(map[*ast.File]bool)
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintf(os.Stderr, "dbs3lint: %v\n", err)
			return 1
		}
		files = append(files, f)
		testFiles[f] = strings.HasSuffix(name, "_test.go")
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tpkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "dbs3lint: %v\n", err)
		return 1
	}
	pkg := &analysis.Package{
		Path:      cfg.ImportPath,
		Fset:      fset,
		Files:     files,
		Types:     tpkg,
		Info:      info,
		TestFiles: testFiles,
	}
	diags, err := analysis.Run([]*analysis.Package{pkg}, analysis.All())
	if err != nil {
		fmt.Fprintf(os.Stderr, "dbs3lint: %v\n", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", d.Pos, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		return 2 // the exit code `go vet` treats as "diagnostics reported"
	}
	return 0
}
