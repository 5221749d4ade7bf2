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
	Fset  *token.FileSet
	Files []*ast.File // non-test Go files, parsed with comments
	Info  *types.Info
}

// listedPkg is the subset of `go list -json` output Load reads.
type listedPkg struct {
	Dir        string
	ImportPath string
	Export     string
	DepOnly    bool
	GoFiles    []string
	Error      *struct{ Err string }
}

// Load resolves patterns with the go tool (relative to dir; "" means
// the current directory) and returns the packages they match, parsed
// and typechecked from source. One `go list -deps -export` call
// compiles export data for their whole import graph into the build
// cache; their imports, module packages and the standard library
// alike, are read from it. Everything runs offline — the module has no
// external dependencies.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Export,Dir,GoFiles,DepOnly,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %w\n%s", patterns, err, stderr.String())
	}
	var graph []listedPkg
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %w", patterns, err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		graph = append(graph, p)
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	var pkgs []*Package
	for _, p := range graph {
		if p.DepOnly {
			continue
		}
		pkg, err := typecheck(fset, imp, p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

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
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: imp}
	if _, err := conf.Check(p.ImportPath, fset, files, info); err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", p.ImportPath, err)
	}
	return &Package{Path: p.ImportPath, Fset: fset, Files: files, Info: info}, nil
}
