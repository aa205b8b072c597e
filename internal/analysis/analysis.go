// Package analysis is the repo's static-analysis layer: a small,
// dependency-free analyzer framework in the shape of
// golang.org/x/tools/go/analysis, plus the suite of analyzers that
// mechanically enforce the invariants the reproduction's evaluation
// rests on — trace determinism (no wall clock, no math/rand, no
// environment reads in result-affecting code), byte-identical report
// output at any -jobs count (no map-ordered writes), span lifecycle
// hygiene (every Start/Child reaches End), and obs metric naming
// discipline.
//
// The framework is built directly on go/ast and go/types because the
// build environment bakes in only the standard library; the Analyzer
// and Pass types mirror x/tools so the analyzers could be ported to a
// real multichecker by swapping the driver.
//
// Diagnostics can be suppressed with a directive comment on the same
// line or the line directly above the flagged position:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// The reason is mandatory; a malformed directive is itself reported, and
// so is a stale one: a directive whose named analyzers all ran and that
// suppressed no diagnostic. Stale-directive findings cannot themselves
// be suppressed.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check. Run inspects a single
// type-checked package through the Pass and reports findings via
// Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:ignore
	// directives. It must be a single lower-case word.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run performs the check. It may return an error for internal
	// failures; invariant violations go through Pass.Reportf instead.
	Run func(*Pass) error
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Module is the cross-package hot-path index for the whole run (all
	// packages passed to RunAnalyzers), shared by the hotalloc/hotcall/
	// escapebudget family.
	Module *ModuleIndex

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported finding, with its position resolved.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	analyzers map[string]bool
	names     string // the analyzer list as written
	pos       token.Position
	used      bool // suppressed at least one diagnostic
}

const ignorePrefix = "lint:ignore"

// parseDirectives extracts every //lint:ignore directive from the
// package's comments. Malformed directives (no analyzer list or no
// reason) are reported through report under the pseudo-analyzer "lint".
func parseDirectives(fset *token.FileSet, files []*ast.File, report func(Diagnostic)) []ignoreDirective {
	var out []ignoreDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
				names, reason, _ := strings.Cut(rest, " ")
				if names == "" || strings.TrimSpace(reason) == "" {
					report(Diagnostic{
						Analyzer: "lint",
						Pos:      pos,
						Message:  "malformed //lint:ignore directive: want `//lint:ignore <analyzer>[,<analyzer>] <reason>`",
					})
					continue
				}
				set := make(map[string]bool)
				for _, n := range strings.Split(names, ",") {
					set[strings.TrimSpace(n)] = true
				}
				out = append(out, ignoreDirective{analyzers: set, names: names, pos: pos})
			}
		}
	}
	return out
}

// suppressed reports whether d is covered by a directive on its own
// line or the line directly above it, marking every such directive used.
func suppressed(d Diagnostic, directives []ignoreDirective) bool {
	hit := false
	for i := range directives {
		dir := &directives[i]
		if dir.pos.Filename != d.Pos.Filename || !dir.analyzers[d.Analyzer] {
			continue
		}
		if dir.pos.Line == d.Pos.Line || dir.pos.Line == d.Pos.Line-1 {
			dir.used = true
			hit = true
		}
	}
	return hit
}

// stale reports whether dir suppressed nothing although every analyzer
// it names ran: a suppression left behind after its finding went away,
// which would silently hide the next finding on that line.
func (dir *ignoreDirective) stale(ran map[string]bool) bool {
	if dir.used {
		return false
	}
	for name := range dir.analyzers {
		if !ran[name] {
			return false
		}
	}
	return true
}

// RunAnalyzers runs every analyzer over every package, applies
// //lint:ignore suppressions, reports stale directives, and returns the
// surviving diagnostics sorted by position. Analyzer-internal errors are
// returned as an error after all packages have been visited.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	var errs []string
	module := buildModuleIndex(pkgs)
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for _, pkg := range pkgs {
		var raw []Diagnostic
		collect := func(d Diagnostic) {
			d.File, d.Line, d.Col = d.Pos.Filename, d.Pos.Line, d.Pos.Column
			raw = append(raw, d)
		}
		directives := parseDirectives(pkg.Fset, pkg.Files, collect)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Module:    module,
				report:    collect,
			}
			if err := a.Run(pass); err != nil {
				errs = append(errs, fmt.Sprintf("%s: %s: %v", a.Name, pkg.Path, err))
			}
		}
		for _, d := range raw {
			if !suppressed(d, directives) {
				diags = append(diags, d)
			}
		}
		for i := range directives {
			if dir := &directives[i]; dir.stale(ran) {
				diags = append(diags, Diagnostic{
					Analyzer: "lint",
					Pos:      dir.pos,
					File:     dir.pos.Filename,
					Line:     dir.pos.Line,
					Col:      dir.pos.Column,
					Message:  fmt.Sprintf("stale //lint:ignore %s: it suppresses no diagnostic; delete it", dir.names),
				})
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	if len(errs) > 0 {
		return diags, fmt.Errorf("analysis failed:\n  %s", strings.Join(errs, "\n  "))
	}
	return diags, nil
}

// InspectWithStack walks the AST rooted at n depth-first, calling f with
// each node and the stack of its ancestors (outermost first, not
// including the node itself). Returning false skips the node's children.
func InspectWithStack(n ast.Node, f func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(n, func(node ast.Node) bool {
		if node == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !f(node, stack) {
			return false
		}
		stack = append(stack, node)
		return true
	})
}
