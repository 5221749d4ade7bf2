package alex_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// docFiles are the prose files whose citations TestDocsCiteOnlyWhatExists
// holds to the code. bench/e2e/README.md belongs to the benchmark and is
// not among them.
var docFiles = []string{
	"README.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	".claude/skills/verify/SKILL.md",
	".github/workflows/ci.yml",
}

// TestDocsCiteOnlyWhatExists fails on any name the docs cite that the
// code lacks: a test, benchmark, fuzz target or example no _test.go
// declares; a `go test -run` alternative that matches no test in the
// packages the command names; a flag a binary does not
// register; a make target the Makefile lacks; an alexd_/alexrouter_
// metric nothing under internal/ registers; a file.go:NN past its file.
// It reads files only: no subprocess, no network.
func TestDocsCiteOnlyWhatExists(t *testing.T) {
	c := loadCode(t)
	for _, name := range docFiles {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		d := doc{name: name, text: string(raw)}
		patterns := c.checkCommands(t, d)
		c.checkTestNames(t, d, patterns)
		c.checkMetrics(t, d)
		c.checkLineRefs(t, d)
	}
}

// code is what the docs may cite, read from the module's sources.
type code struct {
	tests    map[string][]string        // package dir → its Test/Benchmark/Fuzz/Example funcs
	declared map[string]bool            // every such func name
	flags    map[string]map[string]bool // cmd/<bin> → flags it registers
	targets  map[string]bool            // Makefile targets
	metrics  map[string]bool            // alexd_/alexrouter_ names registered under internal/
	goFiles  map[string][]string        // base name → repo-relative .go paths
	dirs     []string                   // every package dir, "." for the root
}

var (
	testFuncRE = regexp.MustCompile(`^(Test|Benchmark|Fuzz|Example)`)
	metricRE   = regexp.MustCompile(`\b(alexd|alexrouter)_[a-z0-9_]+`)
	citedRE    = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)[A-Z_][A-Za-z0-9_]*`)
	lineRefRE  = regexp.MustCompile(`([A-Za-z0-9_./-]*[A-Za-z0-9_]\.go):(\d+)(?:[–-](\d+))?`)
	targetRE   = regexp.MustCompile(`(?m)^([A-Za-z0-9_.-]+)\s*:([^=]|$)`)
)

func loadCode(t *testing.T) *code {
	t.Helper()
	c := &code{
		tests:    map[string][]string{},
		declared: map[string]bool{},
		flags:    map[string]map[string]bool{},
		targets:  map[string]bool{},
		metrics:  map[string]bool{},
		goFiles:  map[string][]string{},
	}
	fset := token.NewFileSet()
	pkgDirs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		path = filepath.ToSlash(path)
		dir := filepath.ToSlash(filepath.Dir(path))
		pkgDirs[dir] = true
		c.goFiles[filepath.Base(path)] = append(c.goFiles[filepath.Base(path)], path)
		isTest := strings.HasSuffix(path, "_test.go")
		inCmd := strings.HasPrefix(dir, "cmd/")
		inInternal := strings.HasPrefix(dir, "internal/")
		if !isTest && !inCmd && !inInternal {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		switch {
		case isTest:
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && testFuncRE.MatchString(fn.Name.Name) {
					c.tests[dir] = append(c.tests[dir], fn.Name.Name)
					c.declared[fn.Name.Name] = true
				}
			}
		case inCmd:
			bin := strings.SplitN(strings.TrimPrefix(dir, "cmd/"), "/", 2)[0]
			if c.flags[bin] == nil {
				c.flags[bin] = map[string]bool{}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if name, ok := flagName(n); ok {
					c.flags[bin][name] = true
				}
				return true
			})
		case inInternal:
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil && metricRE.FindString(s) == s {
						c.metrics[s] = true
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for d := range pkgDirs {
		c.dirs = append(c.dirs, d)
	}
	sort.Strings(c.dirs)
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range targetRE.FindAllStringSubmatch(string(mk), -1) {
		c.targets[m[1]] = true
	}
	return c
}

// flagName reports the flag a flag.X or fs.X registration call names:
// its first string-literal argument.
func flagName(n ast.Node) (string, bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch sel.Sel.Name {
	case "Bool", "Int", "Int64", "Uint", "Uint64", "String", "Float64", "Duration", "Func", "BoolFunc",
		"BoolVar", "IntVar", "Int64Var", "UintVar", "Uint64Var", "StringVar", "Float64Var", "DurationVar", "Var", "TextVar":
	default:
		return "", false
	}
	for _, arg := range call.Args {
		if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			s, err := strconv.Unquote(lit.Value)
			return s, err == nil
		}
	}
	return "", false
}

type doc struct{ name, text string }

// unit is a run of text that may hold commands: a fenced code line, an
// inline code span, or a ci.yml run line, with the doc line it starts on.
type unit struct {
	line int
	text string
}

var inlineCodeRE = regexp.MustCompile("`([^`]+)`")

// units splits d into its code: for Markdown the fenced lines (joined at
// a trailing backslash) and inline spans; for ci.yml the run commands and
// the inline spans of its comments.
func (d doc) units() []unit {
	var out []unit
	lines := strings.Split(d.text, "\n")
	yaml := strings.HasSuffix(d.name, ".yml")
	var pend *unit // a command continued by a trailing backslash
	add := func(line int, s string) {
		if pend != nil {
			pend.text += " " + strings.TrimSpace(strings.TrimSuffix(s, "\\"))
		} else {
			pend = &unit{line: line, text: strings.TrimSuffix(s, "\\")}
		}
		if !strings.HasSuffix(strings.TrimSpace(s), "\\") {
			out = append(out, *pend)
			pend = nil
		}
	}
	inBlock, blockIndent := false, 0
	var prose strings.Builder
	proseStart := 1
	flushProse := func() {
		for _, m := range inlineCodeRE.FindAllStringSubmatchIndex(prose.String(), -1) {
			s := prose.String()
			line := proseStart + strings.Count(s[:m[0]], "\n")
			out = append(out, unit{line: line, text: strings.ReplaceAll(s[m[2]:m[3]], "\n", " ")})
		}
		prose.Reset()
	}
	for i, l := range lines {
		n := i + 1
		trim := strings.TrimSpace(l)
		indent := len(l) - len(strings.TrimLeft(l, " "))
		if yaml {
			if inBlock {
				if trim != "" && indent > blockIndent {
					add(n, trim)
					continue
				}
				inBlock = false
			}
			if strings.HasPrefix(trim, "#") {
				if prose.Len() == 0 {
					proseStart = n
				}
				prose.WriteString(strings.TrimPrefix(trim, "#") + "\n")
				continue
			}
			flushProse()
			if v, ok := strings.CutPrefix(strings.TrimPrefix(trim, "- "), "run:"); ok {
				if v = strings.TrimSpace(v); v == "|" {
					inBlock, blockIndent = true, indent
				} else {
					add(n, v)
				}
			}
			continue
		}
		if strings.HasPrefix(trim, "```") {
			flushProse()
			inBlock = !inBlock
			continue
		}
		if inBlock {
			add(n, trim)
			continue
		}
		if prose.Len() == 0 {
			proseStart = n
		}
		prose.WriteString(l + "\n")
	}
	flushProse()
	return out
}

// commandsOf splits s into simple commands, each a list of words, at
// the shell operators |, ||, &, &&, and ;, honouring quotes and stopping
// at a # comment.
func commandsOf(s string) [][]string {
	var out [][]string
	var cur []string
	var w strings.Builder
	inWord := false
	endWord := func() {
		if inWord {
			cur = append(cur, w.String())
			w.Reset()
			inWord = false
		}
	}
	endCommand := func() {
		endWord()
		if len(cur) > 0 {
			out = append(out, cur)
		}
		cur = nil
	}
	for i := 0; i < len(s); i++ {
		switch ch := s[i]; {
		case ch == '\'' || ch == '"':
			j := strings.IndexByte(s[i+1:], ch)
			if j < 0 {
				j = len(s) - i - 1
			}
			w.WriteString(s[i+1 : i+1+j])
			inWord = true
			i += j + 1
		case ch == ' ' || ch == '\t':
			endWord()
		case ch == '#' && !inWord:
			endCommand()
			return out
		case ch == '|' || ch == '&' || ch == ';':
			endCommand()
		default:
			w.WriteByte(ch)
			inWord = true
		}
	}
	endCommand()
	return out
}

// checkCommands checks every go test -run pattern, binary flag and make
// target in d's code, and returns the pattern alternatives it checked.
func (c *code) checkCommands(t *testing.T, d doc) map[string]bool {
	t.Helper()
	checked := map[string]bool{}
	for _, u := range d.units() {
		for _, cmd := range commandsOf(u.text) {
			for len(cmd) > 0 && strings.Contains(cmd[0], "=") && !strings.HasPrefix(cmd[0], "-") {
				cmd = cmd[1:] // VAR=value prefix
			}
			if len(cmd) == 0 {
				continue
			}
			at := d.name + ":" + strconv.Itoa(u.line)
			switch {
			case cmd[0] == "go" && len(cmd) > 1 && cmd[1] == "test":
				c.checkGoTest(t, at, cmd[2:], checked)
			case cmd[0] == "go" && len(cmd) > 2 && cmd[1] == "run":
				for i, w := range cmd[2:] {
					if bin, ok := strings.CutPrefix(strings.TrimSuffix(w, "/"), "./cmd/"); ok {
						c.checkFlags(t, at, bin, cmd[3+i:])
						break
					}
				}
			case cmd[0] == "make":
				for _, target := range cmd[1:] {
					if !strings.HasPrefix(target, "-") && !strings.Contains(target, "=") && !c.targets[target] {
						t.Errorf("%s: make %s: the Makefile has no target %q", at, target, target)
					}
				}
			default:
				if bin := filepath.Base(cmd[0]); c.flags[bin] != nil {
					c.checkFlags(t, at, bin, cmd[1:])
				}
			}
		}
	}
	return checked
}

func (c *code) checkFlags(t *testing.T, at, bin string, args []string) {
	t.Helper()
	if c.flags[bin] == nil {
		t.Errorf("%s: go run ./cmd/%s: there is no cmd/%s", at, bin, bin)
		return
	}
	for _, a := range args {
		if !strings.HasPrefix(a, "-") || a == "-" {
			continue
		}
		name, _, _ := strings.Cut(strings.TrimLeft(a, "-"), "=")
		if name == "h" || name == "help" || name == "" || (name[0] >= '0' && name[0] <= '9') {
			continue
		}
		if !c.flags[bin][name] {
			t.Errorf("%s: %s -%s: cmd/%s registers no flag -%s", at, bin, name, bin, name)
		}
	}
}

// checkGoTest checks the -run pattern of one go test command: each
// |-alternative must match a test, fuzz target or example in the
// packages the command names (the root package when it names none).
func (c *code) checkGoTest(t *testing.T, at string, args []string, checked map[string]bool) {
	t.Helper()
	pat := ""
	var pkgs []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if name, val, hasVal := strings.Cut(strings.TrimLeft(a, "-"), "="); strings.HasPrefix(a, "-") {
			if name == "run" {
				if !hasVal && i+1 < len(args) {
					i++
					val = args[i]
				}
				pat = val
			}
			continue
		}
		if a == "." || strings.HasPrefix(a, "./") {
			pkgs = append(pkgs, a)
		}
	}
	if pat == "" || pat == "^$" {
		return
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	var dirs []string
	for _, p := range pkgs {
		p = strings.TrimSuffix(strings.TrimPrefix(p, "./"), "/")
		if p == "" {
			p = "."
		}
		if tree, ok := strings.CutSuffix(p, "..."); ok {
			tree = strings.TrimSuffix(tree, "/")
			for _, d := range c.dirs {
				if tree == "" || d == tree || strings.HasPrefix(d, tree+"/") {
					dirs = append(dirs, d)
				}
			}
			continue
		}
		if _, err := os.Stat(p); err != nil {
			t.Errorf("%s: go test %s: no such package", at, p)
		}
		dirs = append(dirs, p)
	}
	// go test matches the part before the first / against top-level
	// names; a | inside parentheses belongs to one alternative.
	name, _, _ := cutTopLevel(pat, '/')
	for {
		alt, rest, more := cutTopLevel(name, '|')
		checked[strings.Trim(alt, "^$")] = true
		if re, err := regexp.Compile(alt); err != nil {
			t.Errorf("%s: go test -run %q: %v", at, alt, err)
		} else if !c.anyTestMatches(re, dirs) {
			t.Errorf("%s: go test -run alternative %q matches no test in %s", at, alt, strings.Join(pkgs, " "))
		}
		if !more {
			return
		}
		name = rest
	}
}

func (c *code) anyTestMatches(re *regexp.Regexp, dirs []string) bool {
	for _, d := range dirs {
		for _, fn := range c.tests[d] {
			if !strings.HasPrefix(fn, "Benchmark") && re.MatchString(fn) {
				return true
			}
		}
	}
	return false
}

// cutTopLevel cuts s at the first sep outside parentheses and brackets.
func cutTopLevel(s string, sep byte) (before, after string, found bool) {
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case sep:
			if depth == 0 {
				return s[:i], s[i+1:], true
			}
		}
	}
	return s, "", false
}

// checkTestNames fails on a cited Test/Benchmark/Fuzz/Example name no
// _test.go declares, unless it is a go test pattern alternative (a
// prefix, checked by checkGoTest).
func (c *code) checkTestNames(t *testing.T, d doc, patterns map[string]bool) {
	t.Helper()
	for _, m := range citedRE.FindAllStringIndex(d.text, -1) {
		name := d.text[m[0]:m[1]]
		if !c.declared[name] && !patterns[name] {
			t.Errorf("%s:%d: %s: no _test.go declares it", d.name, lineAt(d.text, m[0]), name)
		}
	}
}

// checkMetrics fails on an alexd_/alexrouter_ name nothing under
// internal/ registers; a histogram's _bucket, _sum and _count series
// count as cited by their stem.
func (c *code) checkMetrics(t *testing.T, d doc) {
	t.Helper()
	for _, m := range metricRE.FindAllStringIndex(d.text, -1) {
		name := strings.TrimRight(d.text[m[0]:m[1]], "_")
		if !strings.Contains(name, "_") {
			continue
		}
		ok := c.metrics[name]
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if stem, cut := strings.CutSuffix(name, suf); cut && c.metrics[stem] {
				ok = true
			}
		}
		if !ok {
			t.Errorf("%s:%d: %s: nothing under internal/ registers it", d.name, lineAt(d.text, m[0]), name)
		}
	}
}

// checkLineRefs fails on a file.go:NN whose file is missing or shorter
// than NN lines (a bare file name may be any .go file of that name).
func (c *code) checkLineRefs(t *testing.T, d doc) {
	t.Helper()
	for _, m := range lineRefRE.FindAllStringSubmatchIndex(d.text, -1) {
		path := d.text[m[2]:m[3]]
		last, _ := strconv.Atoi(d.text[m[4]:m[5]])
		if m[6] >= 0 {
			last, _ = strconv.Atoi(d.text[m[6]:m[7]])
		}
		at := d.name + ":" + strconv.Itoa(lineAt(d.text, m[0]))
		cands := c.goFiles[filepath.Base(path)]
		if strings.Contains(path, "/") {
			cands = nil
			if _, err := os.Stat(path); err == nil {
				cands = []string{path}
			}
		}
		if len(cands) == 0 {
			t.Errorf("%s: %s: no such file", at, d.text[m[0]:m[1]])
			continue
		}
		longest := 0
		for _, p := range cands {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(strings.TrimSuffix(string(b), "\n"), "\n") + 1; n > longest {
				longest = n
			}
		}
		if last > longest {
			t.Errorf("%s: %s: past the end of %s (%d lines)", at, d.text[m[0]:m[1]], strings.Join(cands, ", "), longest)
		}
	}
}

func lineAt(s string, off int) int { return strings.Count(s[:off], "\n") + 1 }
