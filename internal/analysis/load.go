// The package loader behind alexlint, in two phases. Phase one:
// `go list -deps -export` resolves the import graph (dependency-first
// order) and compiles export data into the build cache; every
// non-standard package in the graph is then parsed and typechecked from
// source, importing already-checked module packages directly and the
// standard library from export data. Phase two: ComputeFacts walks all
// the source packages and propagates interprocedural facts over the
// repo-wide call graph (facts.go). Everything runs offline — the module
// has no external dependencies and the standard library's export data
// comes from the local toolchain's build cache.
package analysis

import (
	"bytes"
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
)

// Package is one loaded, typechecked package.
type Package struct {
	Path  string // import path
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File // non-test Go files, parsed with comments
	Types *types.Package
	Info  *types.Info
}

// Result is one completed load: the requested target packages, the
// full non-standard source graph behind them (dependencies first), and
// the interprocedural facts computed over that graph.
type Result struct {
	Pkgs  []*Package // the packages the patterns matched
	All   []*Package // Pkgs plus their non-stdlib dependencies, deps first
	Facts *FactSet
}

// listedPkg is the subset of `go list -json` output the loader reads.
type listedPkg struct {
	Dir        string
	ImportPath string
	Export     string
	Standard   bool
	GoFiles    []string
	Error      *struct{ Err string }
}

const listFields = "-json=ImportPath,Export,Dir,GoFiles,Standard,Error"

func goList(dir string, args ...string) ([]listedPkg, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %w\n%s", args, err, stderr.String())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %w", args, err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Load resolves patterns with the go tool (relative to dir; "" means
// the current directory), parses and typechecks every non-standard
// package in their dependency graph from source, and computes facts
// over the whole graph. Standard-library packages are imported from
// export data; module packages import each other's source-checked
// types directly (go list's -deps order guarantees dependencies come
// first), so cross-package object identity holds within one load.
func Load(dir string, patterns ...string) (*Result, error) {
	targets, err := goList(dir, append([]string{"-json=ImportPath"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	wanted := make(map[string]bool, len(targets))
	for _, t := range targets {
		wanted[t.ImportPath] = true
	}
	// One -deps -export walk compiles and exposes export data for the
	// whole graph, including the standard library.
	graph, err := goList(dir, append([]string{"-deps", "-export", listFields}, patterns...)...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(graph))
	var order []listedPkg
	for _, p := range graph {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard {
			order = append(order, p)
		}
	}

	fset := token.NewFileSet()
	source := map[string]*types.Package{}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if tp, ok := source[path]; ok {
			return tp, nil
		}
		return gc.Import(path)
	})

	res := &Result{}
	for _, p := range order {
		pkg, err := typecheck(fset, imp, p)
		if err != nil {
			return nil, err
		}
		source[p.ImportPath] = pkg.Types
		res.All = append(res.All, pkg)
		if wanted[p.ImportPath] {
			res.Pkgs = append(res.Pkgs, pkg)
		}
	}
	res.Facts = ComputeFacts(res.All)
	return res, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func typecheck(fset *token.FileSet, imp types.Importer, p listedPkg) (*Package, error) {
	files := make([]*ast.File, 0, len(p.GoFiles))
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", p.ImportPath, err)
	}
	return &Package{
		Path:  p.ImportPath,
		Dir:   p.Dir,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}
