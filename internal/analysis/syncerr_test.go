package analysis

import (
	"strings"
	"testing"
)

// TestTreeLintsClean is the merge gate: syncerr finds nothing in the
// whole module. It is the only place the check runs on the tree, so
// `go test ./...` (and so `make verify` and CI) fails on a dropped Sync,
// Flush or Close error in the scoped packages.
func TestTreeLintsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	pkgs, err := Load("", "alex/...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	var all []string
	for _, pkg := range pkgs {
		if !inScope(pkg.Path) {
			continue
		}
		for _, f := range Check(pkg) {
			all = append(all, f.String())
		}
	}
	if len(all) > 0 {
		t.Errorf("syncerr findings in the tree (must be zero at merge):\n%s", strings.Join(all, "\n"))
	}
}

// TestSyncerr checks the rule on fixture packages under testdata/src:
// a line ending in `// want <text>` must have a finding whose message
// contains text, and any other line must have none. Fixtures are real
// module packages (testdata is invisible to ./... wildcards), so they
// import alex/internal/wal and reproduce its historical bug shapes
// against the real types.
func TestSyncerr(t *testing.T) {
	for _, dir := range []string{
		"testdata/src/a", // the first journal's bug shapes: dropped wal Close/Sync errors
		"testdata/src/b", // compliant: folded, explicit, read-only defers
	} {
		t.Run(dir, func(t *testing.T) {
			pkgs, err := Load("", "./"+dir)
			if err != nil {
				t.Fatal(err)
			}
			pkg := pkgs[0]
			wants := map[line]string{}
			for _, file := range pkg.Files {
				for _, cg := range file.Comments {
					for _, c := range cg.List {
						if want, ok := strings.CutPrefix(c.Text, "// want "); ok {
							p := pkg.Fset.Position(c.Pos())
							wants[line{p.Filename, p.Line}] = want
						}
					}
				}
			}
			for _, f := range Check(pkg) {
				key := line{f.Pos.Filename, f.Pos.Line}
				if want, ok := wants[key]; !ok || !strings.Contains(f.Message, want) {
					t.Errorf("%s: unexpected finding: %s", f.Pos, f.Message)
					continue
				}
				delete(wants, key)
			}
			for key, want := range wants {
				t.Errorf("%s:%d: no finding containing %q", key.file, key.n, want)
			}
		})
	}
}
