package analysis_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// The harness is this module's analysistest: each testdata package is parsed
// and type-checked under a synthetic import path (chosen inside the analyzer's
// Match scope), the full suite runs over the resulting program with the same
// allow suppression the driver applies, and the surviving diagnostics are
// matched against `// want `+"`regex`"+` expectations in the sources. A
// diagnostic without a matching want, or a want without a matching
// diagnostic, fails the test — so deleting an analyzer from the suite makes
// its testdata wants fail, which is the guard the suite rides on.

// testPkg is one testdata package: synthetic import path, source dir, and
// the basenames to parse syntax-only as test files (the registry analyzer
// reads fuzz family assignments from those).
type testPkg struct {
	path      string
	dir       string
	testFiles map[string]bool
}

var (
	exportsOnce sync.Once
	exportsMap  map[string]string
	exportsErr  error
)

// stdExports lists export data once per test binary for the std packages the
// testdata sources import.
func stdExports(t *testing.T) map[string]string {
	t.Helper()
	exportsOnce.Do(func() {
		exportsMap, exportsErr = load.Exports("../..", "fmt", "time", "math/rand", "math/rand/v2", "sort")
	})
	if exportsErr != nil {
		t.Fatalf("listing std export data: %v", exportsErr)
	}
	return exportsMap
}

// srcImporter resolves previously source-checked testdata packages first and
// falls back to build-cache export data, so testdata packages can import each
// other under their synthetic paths.
type srcImporter struct {
	base types.Importer
	srcs map[string]*types.Package
}

func (i *srcImporter) Import(path string) (*types.Package, error) {
	if p, ok := i.srcs[path]; ok {
		return p, nil
	}
	return i.base.Import(path)
}

// runAnalysisTest checks pkgs in the given order (dependencies first), runs
// every analyzer in analysis.All() that matches, applies allow suppression,
// and compares diagnostics to want expectations.
func runAnalysisTest(t *testing.T, pkgs []testPkg) {
	t.Helper()
	fset := token.NewFileSet()
	imp := &srcImporter{base: load.Importer(fset, stdExports(t)), srcs: make(map[string]*types.Package)}
	prog := &analysis.Program{Fset: fset, Facts: analysis.NewFactStore()}

	for _, tp := range pkgs {
		entries, err := os.ReadDir(tp.dir)
		if err != nil {
			t.Fatalf("reading %s: %v", tp.dir, err)
		}
		var srcNames, testNames []string
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") {
				continue
			}
			if tp.testFiles[name] {
				testNames = append(testNames, name)
			} else {
				srcNames = append(srcNames, name)
			}
		}
		sort.Strings(srcNames)
		sort.Strings(testNames)
		info, err := load.Check(fset, imp, tp.path, tp.dir, srcNames)
		if err != nil {
			t.Fatalf("type-checking %s: %v", tp.path, err)
		}
		for _, name := range testNames {
			f, err := parser.ParseFile(fset, filepath.Join(tp.dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				t.Fatalf("parsing %s: %v", name, err)
			}
			info.TestFiles = append(info.TestFiles, f)
		}
		imp.srcs[tp.path] = info.Pkg
		prog.Packages = append(prog.Packages, info)
	}

	var diags []analysis.Diagnostic
	report := func(d analysis.Diagnostic) { diags = append(diags, d) }
	analyzers := analysis.All()
	for _, p := range prog.Packages {
		for _, a := range analyzers {
			if a.Match != nil && !a.Match(p.Path) {
				continue
			}
			if err := a.Run(prog.NewPass(a, p, report)); err != nil {
				t.Fatalf("%s on %s: %v", a.Name, p.Path, err)
			}
		}
	}
	for _, a := range analyzers {
		if a.Finalize != nil {
			a.Finalize(prog, report)
		}
	}

	var files []*ast.File
	for _, p := range prog.Packages {
		files = append(files, p.Files...)
		files = append(files, p.TestFiles...)
	}
	allows := analysis.CollectAllows(fset, files, analyzers)
	diags = append(diags, allows.Malformed...)
	var active []analysis.Diagnostic
	for _, d := range diags {
		if _, ok := allows.Suppresses(d); !ok {
			active = append(active, d)
		}
	}

	checkWants(t, fset, files, active)
}

var wantRe = regexp.MustCompile("// want `([^`]+)`")

type wantExp struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// checkWants matches diagnostics against the `// want` expectations in files,
// both directions.
func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*wantExp
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", fset.Position(c.Pos()), m[1], err)
					}
					pos := fset.Position(c.Pos())
					wants = append(wants, &wantExp{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched, matched = true, true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic %s: %s: %s", fmtPos(pos), d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
		}
	}
}

func fmtPos(p token.Position) string {
	return fmt.Sprintf("%s:%d:%d", p.Filename, p.Line, p.Column)
}

func TestDeterminismAnalyzer(t *testing.T) {
	runAnalysisTest(t, []testPkg{
		{path: "repro/internal/gpu/dettest", dir: "testdata/determinism/det"},
		{path: "repro/internal/compress/bdi/dettest", dir: "testdata/determinism/codec"},
		{path: "repro/internal/slc/dettest", dir: "testdata/determinism/lossy"},
	})
}

func TestPoolSafetyAnalyzer(t *testing.T) {
	runAnalysisTest(t, []testPkg{
		{path: "repro/pooltest/pooldef", dir: "testdata/poolsafety/pooldef"},
		{path: "repro/pooltest/pooluse", dir: "testdata/poolsafety/pooluse"},
	})
}

func TestAllocFreeAnalyzer(t *testing.T) {
	runAnalysisTest(t, []testPkg{
		{path: "repro/alloctest/af", dir: "testdata/allocfree/af"},
	})
}

func TestRegistryAnalyzer(t *testing.T) {
	runAnalysisTest(t, []testPkg{
		{path: "repro/internal/compress", dir: "testdata/registry/compress",
			testFiles: map[string]bool{"fuzz.go": true}},
		{path: "repro/internal/compress/goodfam", dir: "testdata/registry/goodfam"},
		{path: "repro/internal/compress/latefam", dir: "testdata/registry/latefam"},
		{path: "repro/internal/compress/badfam", dir: "testdata/registry/badfam"},
		{path: "repro/internal/compress/orphan", dir: "testdata/registry/orphan"},
		{path: "repro/internal/compress/unfuzzed", dir: "testdata/registry/unfuzzed"},
		{path: "repro/internal/compress/dynfam", dir: "testdata/registry/dynfam"},
		{path: "repro/internal/compress/all", dir: "testdata/registry/all"},
	})
}
