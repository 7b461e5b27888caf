package analysis

// The fixture harness: an analysistest-shaped runner for this repo's
// stdlib-only framework. Each fixture directory under testdata/src/<name>/
// is one package; `// want "regexp"` comments mark expected diagnostics on
// their own line, every other line must stay silent, and unmatched
// expectations or extra diagnostics fail the test.

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

// fixtureStdlib is the closed set of imports fixtures may use. The
// harness materializes their export data once per test process.
var fixtureStdlib = []string{"context", "errors", "io", "os", "sync", "sync/atomic", "time"}

var (
	stdOnce    sync.Once
	stdExports map[string]string
	stdErr     error
)

func stdlibExports(t *testing.T) map[string]string {
	t.Helper()
	stdOnce.Do(func() {
		args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Export,Standard"}, fixtureStdlib...)
		out, err := exec.Command("go", args...).Output()
		if err != nil {
			stdErr = fmt.Errorf("go list (stdlib export data): %v", err)
			return
		}
		stdExports = make(map[string]string)
		dec := json.NewDecoder(strings.NewReader(string(out)))
		for {
			var p struct {
				ImportPath string
				Export     string
			}
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				stdErr = err
				return
			}
			if p.Export != "" {
				stdExports[p.ImportPath] = p.Export
			}
		}
	})
	if stdErr != nil {
		t.Fatal(stdErr)
	}
	return stdExports
}

// loadFixture parses and type-checks every .go file in dir as one package.
func loadFixture(t *testing.T, dir string) *Package {
	t.Helper()
	exports := stdlibExports(t)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	testFiles := make(map[*ast.File]bool)
	var names []string
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	if len(names) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
		testFiles[f] = strings.HasSuffix(name, "_test.go")
	}
	lookup := func(path string) (io.ReadCloser, error) {
		exp, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("fixture imports %q, which is outside fixtureStdlib", path)
		}
		return os.Open(exp)
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
	tpkg, err := conf.Check("fixture/"+filepath.Base(dir), fset, files, info)
	if err != nil {
		t.Fatalf("typecheck fixture %s: %v", dir, err)
	}
	return &Package{
		Path:      tpkg.Path(),
		Fset:      fset,
		Files:     files,
		Types:     tpkg,
		Info:      info,
		TestFiles: testFiles,
	}
}

// wantRe extracts the quoted patterns of a `// want "p1" "p2"` comment.
var wantRe = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

type expectation struct {
	re  *regexp.Regexp
	hit bool
}

// collectWants maps file:line → expected-diagnostic patterns.
func collectWants(t *testing.T, pkg *Package) map[string][]*expectation {
	t.Helper()
	wants := make(map[string][]*expectation)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, m := range wantRe.FindAllStringSubmatch(text[len("want "):], -1) {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", key, pat, err)
					}
					wants[key] = append(wants[key], &expectation{re: re})
				}
			}
		}
	}
	return wants
}

// runFixture runs one analyzer over one fixture package and matches the
// diagnostics (after //dbs3lint:ignore filtering) against want comments.
func runFixture(t *testing.T, a *Analyzer, rel string) {
	t.Helper()
	pkg := loadFixture(t, filepath.Join("testdata", "src", rel))
	wants := collectWants(t, pkg)
	diags, err := Run([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.hit && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic:\n  %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.hit {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, w.re)
			}
		}
	}
}

func TestLockIOFixture(t *testing.T)       { runFixture(t, LockIO, filepath.Join("lockio", "a")) }
func TestCtxFlowFixture(t *testing.T)      { runFixture(t, CtxFlow, filepath.Join("ctxflow", "a")) }
func TestCtxFlowMainPackage(t *testing.T)  { runFixture(t, CtxFlow, filepath.Join("ctxflow", "mainpkg")) }
func TestCancelClassFixture(t *testing.T)  { runFixture(t, CancelClass, filepath.Join("cancelclass", "a")) }
func TestAtomicFieldFixture(t *testing.T)  { runFixture(t, AtomicField, filepath.Join("atomicfield", "a")) }
func TestUnsafeConfineFixture(t *testing.T) {
	runFixture(t, UnsafeConfine, filepath.Join("unsafeconfine", "internal", "relation"))
}

// TestLockIOScratchSeed is the acceptance check in executable form:
// seeding the known-bad pattern — a mutex held across os.File.Read — into
// a scratch package outside testdata must be reported by lockio.
func TestLockIOScratchSeed(t *testing.T) {
	dir := t.TempDir()
	src := `package scratch

import (
	"os"
	"sync"
)

type cache struct {
	mu sync.Mutex
	f  *os.File
}

func (c *cache) get(buf []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.f.Read(buf)
}
`
	if err := os.WriteFile(filepath.Join(dir, "scratch.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg := loadFixture(t, dir)
	diags, err := Run([]*Package{pkg}, []*Analyzer{LockIO})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("lockio diagnostics = %d, want 1: %v", len(diags), diags)
	}
	if want := `reads from a file while mutex "c.mu" is held`; !strings.Contains(diags[0].Message, want) {
		t.Fatalf("diagnostic %q does not contain %q", diags[0].Message, want)
	}
}
