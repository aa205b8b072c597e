// Package analysistest runs one analyzer over a golden package under
// testdata/src and checks its diagnostics against `// want` comments, in
// the style of golang.org/x/tools/go/analysis/analysistest:
//
//	for k := range m { // want `map iteration order`
//
// Each backquoted (or quoted) string after `want` is a regular
// expression that must match a diagnostic reported on that line; every
// diagnostic must be matched by some expectation and vice versa. A block
// comment /* want `...` */ carries an expectation on a line whose own
// comment is the subject, such as a //lint:ignore directive.
// //lint:ignore suppressions are applied before matching, so a golden
// line carrying a directive and no want comment demonstrates an
// accepted suppression.
//
// Golden packages are addressed by import path: the files live at
// testdata/src/<importPath>/ and are type-checked AS that import path,
// which is how scope-sensitive analyzers (nodeterminism) see a golden
// inside or outside their target package set. Imports resolve first
// against testdata/src, then against the real module and standard
// library via the source importer — goldens import the real
// prefix/internal/obs.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"prefix/internal/analysis"
)

// Run loads testdata/src/<importPath> (relative to the test's working
// directory), runs the analyzer, and matches diagnostics against the
// package's want comments.
func Run(t *testing.T, a *analysis.Analyzer, importPath string) {
	t.Helper()
	if a == nil {
		t.Fatalf("nil analyzer (was its registration deleted?)")
	}
	root, err := filepath.Abs("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	imp := &testdataImporter{
		fset:  fset,
		root:  root,
		base:  importer.ForCompiler(fset, "source", nil),
		cache: make(map[string]*types.Package),
	}
	dir := filepath.Join(root, filepath.FromSlash(importPath))
	pkg, err := analysis.LoadDir(fset, imp, dir, importPath)
	if err != nil {
		t.Fatalf("loading golden %s: %v", importPath, err)
	}
	diags, err := analysis.RunAnalyzers([]*analysis.Package{pkg}, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, importPath, err)
	}
	check(t, fset, pkg.Files, diags)
}

// expectation is one want regexp at a (file, line).
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	text string
	met  bool
}

var wantRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// check matches diagnostics against want comments, failing the test on
// any unmatched diagnostic or unmet expectation.
func check(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if block, ok := strings.CutPrefix(c.Text, "/*"); ok {
					text = strings.TrimSuffix(block, "*/")
				}
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				body := strings.TrimPrefix(text, "want ")
				matches := wantRE.FindAllStringSubmatch(body, -1)
				if len(matches) == 0 {
					t.Errorf("%s: malformed want comment %q", pos, c.Text)
					continue
				}
				for _, m := range matches {
					src := m[1]
					if src == "" {
						src = m[2]
					}
					re, err := regexp.Compile(src)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, src, err)
						continue
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, text: src})
				}
			}
		}
	}

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.met = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic %s", d)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.text)
		}
	}
}

// testdataImporter resolves golden-package imports: a directory under
// testdata/src wins; anything else falls through to the source importer
// (standard library and the real module packages).
type testdataImporter struct {
	fset  *token.FileSet
	root  string
	base  types.Importer
	cache map[string]*types.Package
}

func (i *testdataImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := i.cache[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(i.root, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		pkg, err := analysis.LoadDir(i.fset, i, dir, path)
		if err != nil {
			return nil, fmt.Errorf("testdata import %q: %w", path, err)
		}
		i.cache[path] = pkg.Types
		return pkg.Types, nil
	}
	pkg, err := i.base.Import(path)
	if err != nil {
		return nil, err
	}
	i.cache[path] = pkg
	return pkg, nil
}
