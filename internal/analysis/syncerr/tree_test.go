package syncerr_test

import (
	"strings"
	"testing"

	"alex/internal/analysis"
	"alex/internal/analysis/syncerr"
)

// TestTreeLintsClean is the merge gate: syncerr finds nothing in the
// whole module. It is the only place the analyzer runs on the tree, so
// `go test ./...` (and so `make verify` and CI) fails on a dropped Sync,
// Flush or Close error in the scoped packages.
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
		findings, err := analysis.Run(pkg, syncerr.Analyzer)
		if err != nil {
			t.Fatalf("analyzing %s: %v", pkg.Path, err)
		}
		for _, f := range findings {
			all = append(all, f.String())
		}
	}
	if len(all) > 0 {
		t.Errorf("syncerr findings in the tree (must be zero at merge):\n%s", strings.Join(all, "\n"))
	}
}
