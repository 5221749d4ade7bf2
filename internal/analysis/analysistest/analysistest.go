// Package analysistest runs an analyzer over fixture packages
// and checks its diagnostics against expectations written in the
// fixtures themselves, in the style of
// golang.org/x/tools/go/analysis/analysistest.
//
// A fixture is an ordinary package directory under the analyzer's
// testdata/src/. Every line that should trigger the analyzer carries a
// trailing comment of the form
//
//	x.Close() // want `discarded error`
//
// where the backquoted (or double-quoted) text is a regular expression
// that must match the diagnostic's message. Several `want` patterns on
// one line expect several diagnostics. Any reported diagnostic without a
// matching expectation — and any expectation without a diagnostic — is a
// test failure, so clean fixture lines double as negative cases.
//
// Fixtures are real module packages (go list resolves them by explicit
// path; testdata is invisible to ./... wildcards), so they may import
// live packages such as alex/internal/wal and reproduce this repo's
// actual historical bug shapes against the real types. The loader
// typechecks a fixture as it does any target package, so an analyzer
// sees exactly what the production driver sees.
package analysistest

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"alex/internal/analysis"
)

// Reporter is the slice of testing.T the harness needs. Tests for the
// harness itself substitute a recorder to assert that a broken fixture
// (a wrong or missing `want`) actually fails.
type Reporter interface {
	Errorf(format string, args ...any)
}

// Run loads each fixture directory (relative to the test's working
// directory, conventionally "testdata/src/<name>"), applies the
// analyzer, and reports any mismatch between expected and actual
// diagnostics as test errors.
func Run(t *testing.T, a *analysis.Analyzer, fixtureDirs ...string) {
	t.Helper()
	for _, dir := range fixtureDirs {
		dir := dir
		t.Run(dir, func(t *testing.T) {
			t.Helper()
			if err := RunDir(t, a, dir); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// RunDir runs the analyzer over one fixture directory, reporting
// expectation mismatches through r. The returned error covers
// operational failures (fixture fails to load, bad want pattern,
// analyzer error) — conditions that should abort rather than
// accumulate.
func RunDir(r Reporter, a *analysis.Analyzer, dir string) error {
	pkgs, err := analysis.Load("", "./"+dir)
	if err != nil {
		return fmt.Errorf("loading fixture %s: %v", dir, err)
	}
	if len(pkgs) != 1 {
		return fmt.Errorf("fixture %s: loaded %d packages, want 1", dir, len(pkgs))
	}
	pkg := pkgs[0]

	// Bypass Match: fixtures live under testdata, not in the scoped
	// packages; scope is the driver's concern, behavior is tested here.
	unscoped := *a
	unscoped.Match = nil
	findings, err := analysis.Run(pkg, &unscoped)
	if err != nil {
		return fmt.Errorf("running %s on %s: %v", a.Name, dir, err)
	}

	wants, err := collectWants(pkg)
	if err != nil {
		return err
	}
	for _, f := range findings {
		key := posKey{file: f.Pos.Filename, line: f.Pos.Line}
		if !wants.take(key, f.Message) {
			r.Errorf("%s: unexpected diagnostic: %s", f.Pos, f.Message)
		}
	}
	for key, exps := range wants {
		for _, e := range exps {
			r.Errorf("%s:%d: no diagnostic matching %q", key.file, key.line, e.String())
		}
	}
	return nil
}

type posKey struct {
	file string
	line int
}

type wantMap map[posKey][]*regexp.Regexp

// take consumes one expectation matching msg at key, reporting whether
// one existed.
func (w wantMap) take(key posKey, msg string) bool {
	for i, re := range w[key] {
		if re.MatchString(msg) {
			w[key] = append(w[key][:i], w[key][i+1:]...)
			if len(w[key]) == 0 {
				delete(w, key)
			}
			return true
		}
	}
	return false
}

// wantRE pulls the patterns out of a `// want ...` comment: one or more
// backquoted or double-quoted strings.
var wantRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

func collectWants(pkg *analysis.Package) (wantMap, error) {
	wants := wantMap{}
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, q := range wantRE.FindAllString(strings.TrimPrefix(text, "want "), -1) {
					pat, err := unquote(q)
					if err != nil {
						return nil, fmt.Errorf("%s: bad want pattern %s: %v", pos, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						return nil, fmt.Errorf("%s: bad want regexp %s: %v", pos, q, err)
					}
					key := posKey{file: pos.Filename, line: pos.Line}
					wants[key] = append(wants[key], re)
				}
			}
		}
	}
	return wants, nil
}

func unquote(q string) (string, error) {
	if strings.HasPrefix(q, "`") {
		return strings.Trim(q, "`"), nil
	}
	s, err := strconv.Unquote(q)
	if err != nil {
		return "", fmt.Errorf("unquote %s: %w", q, err)
	}
	return s, nil
}
