// Command alexlint runs ALEX's invariant analyzers (see
// internal/analysis/suite) over module packages:
//
//	alexlint [packages]     # defaults to ./...
//	alexlint -list          # describe the analyzers
//	alexlint -github ./...  # GitHub ::error annotations
//
// Exit status is 0 when the tree is clean, 2 when findings were
// reported, and 1 on operational errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"alex/internal/analysis"
	"alex/internal/analysis/suite"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("alexlint", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: alexlint [-list] [-github] [packages]\n\n")
		fmt.Fprintf(fs.Output(), "Runs the ALEX invariant analyzers; packages default to ./...\n")
		fs.PrintDefaults()
	}
	list := fs.Bool("list", false, "describe the analyzers and exit")
	githubOut := fs.Bool("github", false, "emit findings as GitHub ::error annotations")
	if err := fs.Parse(args); err != nil {
		return 1
	}

	if *list {
		for _, a := range suite.Analyzers {
			fmt.Printf("%s: %s\n", a.Name, firstLine(a.Doc))
		}
		return 0
	}
	emit := emitText
	if *githubOut {
		emit = emitGitHub
	}
	return runStandalone(fs.Args(), emit)
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// ---- output modes ----

func emitText(rel func(string) string, f analysis.Finding) {
	fmt.Printf("%s:%d:%d: %s (%s)\n",
		rel(f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Message, f.Analyzer)
}

// emitGitHub prints workflow-command annotations so findings render
// inline on pull requests. Message text must escape %, CR and LF per
// the workflow-command encoding.
func emitGitHub(rel func(string) string, f analysis.Finding) {
	esc := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	fmt.Printf("::error file=%s,line=%d,col=%d,title=alexlint/%s::%s\n",
		rel(f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Analyzer, esc.Replace(f.Message))
}

// runStandalone loads packages with the go tool and analyzes each one.
func runStandalone(patterns []string, emit func(func(string) string, analysis.Finding)) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "alexlint:", err)
		return 1
	}
	cwd, _ := os.Getwd()
	rel := func(path string) string { return relpath(cwd, path) }
	found := 0
	for _, pkg := range pkgs {
		findings, err := analysis.Run(pkg, suite.Analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "alexlint:", err)
			return 1
		}
		for _, f := range findings {
			found++
			emit(rel, f)
		}
	}
	if found > 0 {
		return 2
	}
	return 0
}

func relpath(base, path string) string {
	if base == "" {
		return path
	}
	if rel, err := filepath.Rel(base, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}
