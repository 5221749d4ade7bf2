// Package analysis is the repository's static-analysis framework: a
// minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis surface its one analyzer needs.
//
// The repo deliberately has no module dependencies, so instead of the
// x/tools driver stack this package provides the same pieces in
// stdlib-only form:
//
//   - Analyzer / Pass / Diagnostic — the contract an invariant checker
//     implements (analysis.go, this file);
//   - a go-list-based loader that typechecks the target packages from
//     source against their imports' export data (load.go);
//   - an analysistest-style fixture harness driven by `// want` comments
//     (internal/analysis/analysistest).
//
// The analyzer is syncerr, the durability contract's check at every
// site where no test faults a dropped Sync, Flush or Close error. Its
// TestTreeLintsClean runs it over the whole module in `go test ./...`.
//
// Findings can be suppressed in place with a directive comment
//
//	//lint:ignore analyzer1,analyzer2 reason the invariant holds anyway
//
// which silences the named analyzers on its own line and the line
// below it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one invariant checker. Unlike x/tools analyzers it also
// carries its package scope: ALEX's invariants are contracts of specific
// subsystems (the WAL, the serving layer), not universal style rules.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics (lowercase, no spaces).
	Name string
	// Match reports whether the analyzer applies to the package with the
	// given import path. nil applies it everywhere. Run consults
	// Match; the test harness bypasses it so fixtures can live anywhere.
	Match func(pkgPath string) bool
	// Run analyzes one package, reporting findings through pass.Report.
	Run func(pass *Pass) error
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one package's parsed and typechecked state through an
// analyzer run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Finding is a diagnostic bound to its analyzer and resolved position,
// as produced by Run.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// Run applies a to pkg when a's Match accepts pkg's import path and
// returns its findings in the order it reported them, minus any
// suppressed by `//lint:ignore` directives. An analyzer error (not a
// finding) aborts the run. Test files are never analyzed: Load reads a
// package's non-test files only.
func Run(pkg *Package, a *Analyzer) ([]Finding, error) {
	if a.Match != nil && !a.Match(pkg.Path) {
		return nil, nil
	}
	ignores := collectIgnores(pkg.Fset, pkg.Files)
	var out []Finding
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		TypesInfo: pkg.Info,
	}
	pass.Report = func(d Diagnostic) {
		pos := pkg.Fset.Position(d.Pos)
		if ignores.covers(pos, a.Name) {
			return
		}
		out = append(out, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
	}
	return out, nil
}

// ---- //lint:ignore directives ----

// ignoreIndex maps file -> line -> analyzer names suppressed there.
type ignoreIndex map[string]map[int][]string

// covers reports whether a directive at pos's line or the line above
// names analyzer.
func (ix ignoreIndex) covers(pos token.Position, analyzer string) bool {
	lines := ix[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, name := range lines[line] {
			if name == analyzer {
				return true
			}
		}
	}
	return false
}

// collectIgnores indexes every `//lint:ignore names reason` comment.
// The names field is a comma-separated analyzer list; a directive with
// no trailing reason is ignored (an undocumented exemption is a bug).
func collectIgnores(fset *token.FileSet, files []*ast.File) ignoreIndex {
	ix := ignoreIndex{}
	for _, file := range files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//lint:ignore ")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					continue // no reason given: directive inert by design
				}
				pos := fset.Position(c.Pos())
				if ix[pos.Filename] == nil {
					ix[pos.Filename] = map[int][]string{}
				}
				for _, name := range strings.Split(fields[0], ",") {
					if name = strings.TrimSpace(name); name != "" {
						ix[pos.Filename][pos.Line] = append(ix[pos.Filename][pos.Line], name)
					}
				}
			}
		}
	}
	return ix
}

// PathHasAny reports whether import path p is one of the listed packages
// or inside one of them (prefix with a following "/"). It is the helper
// analyzers build Match functions from.
func PathHasAny(p string, pkgs ...string) bool {
	for _, pkg := range pkgs {
		if p == pkg || strings.HasPrefix(p, pkg+"/") {
			return true
		}
	}
	return false
}
