package suite_test

import (
	"strings"
	"testing"

	"alex/internal/analysis"
	"alex/internal/analysis/suite"
)

// TestTreeLintsClean is the merge gate in test form: the whole module
// must produce zero findings. `make lint` (and CI) run the alexlint
// binary for the same result with human-oriented output; this test
// makes sure the invariants hold even for contributors who only run
// `go test ./...`.
func TestTreeLintsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	pkgs, err := analysis.Load("", "alex/...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	var all []string
	for _, pkg := range pkgs {
		findings, err := analysis.Run(pkg, suite.Analyzers)
		if err != nil {
			t.Fatalf("analyzing %s: %v", pkg.Path, err)
		}
		for _, f := range findings {
			all = append(all, f.String())
		}
	}
	if len(all) > 0 {
		t.Errorf("alexlint findings in the tree (must be zero at merge):\n%s", strings.Join(all, "\n"))
	}
}
