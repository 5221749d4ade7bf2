// Facts: interprocedural function summaries, alexlint's stdlib-only
// analogue of golang.org/x/tools go/analysis facts.
//
// A FuncFacts value summarizes one function's externally relevant
// behavior — "performs an outbound HTTP request", "journals durably
// before returning", "writes an HTTP response status". The loader
// computes facts for every module package in the dependency graph
// (phase two of the load, after all sources are typechecked) by
// seeding intrinsic knowledge about standard-library and contract
// functions, then propagating the bits caller-ward over the repo-wide
// call graph to a fixpoint. Analyzers consult facts
// through Pass.FuncFacts, which is how ackorder can know that a
// handler's helper journals before the 202 without reimplementing a
// whole-program dataflow.
//
// Facts are deliberately summaries, not dataflow (DESIGN.md decision
// 14): a bit answers "can calling F do X at all", never "does this
// call to F do X with these arguments". Functions are identified by a
// canonical string key (FuncKey).
package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// FuncFacts is the summary of one function. The zero value means
// "nothing known", which for analyzers reads as "safe": facts
// under-approximate on function values and unresolvable dynamic calls
// (see DESIGN.md decision 14 for what that misses).
type FuncFacts struct {
	// Outbound: the function transitively performs an HTTP request.
	// Each *Via field names the callee key its bit arrived through.
	Outbound    bool
	OutboundVia string

	// HasCtx: the function's own signature accepts a context.Context
	// (or an *http.Request, which carries one). Not propagated — it is
	// a property of the signature, and together with Outbound it lets
	// ctxflow flag "performs requests but offers callers no way to
	// scope them".
	HasCtx bool

	// Journals: the function transitively reaches a durable write that
	// backs an ack — (*wal.Log).Append locally, or a Client RPC whose
	// non-error return means the remote shard journaled and fsynced
	// (Feedback, FeedbackResult). ackorder treats such calls as barriers
	// that must dominate a 202.
	Journals    bool
	JournalsVia string

	// AcksHTTP: the function transitively calls
	// net/http.ResponseWriter.WriteHeader — it can commit a response
	// status. Combined with a constant 202 argument at the call site
	// this identifies ack writers like writeJSON across packages.
	AcksHTTP bool
	AcksVia  string
}

// merge ORs other's bits into f, keeping the first Via seen.
func (f *FuncFacts) merge(other FuncFacts) bool {
	changed := false
	if other.Outbound && !f.Outbound {
		f.Outbound, f.OutboundVia = true, other.OutboundVia
		changed = true
	}
	if other.HasCtx && !f.HasCtx {
		f.HasCtx = true
		changed = true
	}
	if other.Journals && !f.Journals {
		f.Journals, f.JournalsVia = true, other.JournalsVia
		changed = true
	}
	if other.AcksHTTP && !f.AcksHTTP {
		f.AcksHTTP, f.AcksVia = true, other.AcksVia
		changed = true
	}
	return changed
}

// FactSet is the computed fact table for one load: canonical function
// key → summary. Lookups fall back to the intrinsic seed table, so a
// nil or empty set still answers correctly for standard-library
// functions.
type FactSet struct {
	funcs map[string]FuncFacts
}

// ForFunc returns the facts for fn: the computed entry if the load saw
// it, otherwise fn's intrinsic seed facts. ok reports whether anything
// is known at all.
func (s *FactSet) ForFunc(fn *types.Func) (FuncFacts, bool) {
	if fn == nil {
		return FuncFacts{}, false
	}
	if s != nil && s.funcs != nil {
		if f, ok := s.funcs[FuncKey(fn)]; ok {
			return f, true
		}
	}
	f, ok := seedFacts(fn)
	return f, ok
}

// Lookup returns the facts stored under a canonical key.
func (s *FactSet) Lookup(key string) (FuncFacts, bool) {
	if s == nil || s.funcs == nil {
		return FuncFacts{}, false
	}
	f, ok := s.funcs[key]
	return f, ok
}

// FuncKey returns the canonical identity of a function: "pkgpath.Name" for package functions, "pkgpath.(Recv).Name"
// or "pkgpath.(*Recv).Name" for methods (including interface methods).
// Generic instantiations key as their origin.
func FuncKey(fn *types.Func) string {
	fn = fn.Origin()
	name := fn.Name()
	pkg := fn.Pkg()
	if pkg == nil {
		return name // universe scope: error.Error
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return pkg.Path() + "." + name
	}
	recv := sig.Recv().Type()
	ptr := ""
	if p, ok := recv.(*types.Pointer); ok {
		recv, ptr = p.Elem(), "*"
	}
	recvName := ""
	if named, ok := recv.(*types.Named); ok {
		recvName = named.Obj().Name()
	} else {
		recvName = types.TypeString(recv, func(*types.Package) string { return "" })
	}
	return pkg.Path() + ".(" + ptr + recvName + ")." + name
}

// ---- intrinsic seeds ----

// seedFacts returns the facts known about fn without seeing its body:
// the standard library's HTTP surface, plus the module's durability
// contract roots. Seeds also apply to source functions (a source body
// for (*wal.Log).Append cannot reveal that an Append IS the durability
// barrier — that is contract knowledge) and are unioned with
// source-derived facts during ComputeFacts.
func seedFacts(fn *types.Func) (FuncFacts, bool) {
	fn = fn.Origin()
	name := fn.Name()
	path := ""
	if fn.Pkg() != nil {
		path = fn.Pkg().Path()
	}
	recv := recvTypeName(fn)

	if path == "net/http" {
		switch recv {
		case "":
			switch name {
			case "Get", "Head", "Post", "PostForm":
				return FuncFacts{Outbound: true}, true
			}
		case "Client":
			switch name {
			case "Do":
				return FuncFacts{Outbound: true, HasCtx: true}, true
			case "Get", "Head", "Post", "PostForm":
				return FuncFacts{Outbound: true}, true
			}
		case "Transport", "RoundTripper":
			if name == "RoundTrip" {
				return FuncFacts{Outbound: true, HasCtx: true}, true
			}
		case "ResponseWriter":
			if name == "WriteHeader" {
				return FuncFacts{AcksHTTP: true}, true
			}
		}
	}

	// Module contract roots, matched by path suffix so fixture copies
	// and the live packages resolve identically.
	if strings.HasSuffix(path, "internal/wal") && recv == "Log" && name == "Append" {
		return FuncFacts{Journals: true}, true
	}
	if strings.HasSuffix(path, "internal/server") && recv == "Client" {
		switch name {
		// A non-error return from these RPCs means the remote shard
		// journaled and fsynced before acking — durable by contract.
		case "Feedback", "FeedbackContext", "FeedbackResult":
			return FuncFacts{Journals: true}, true
		}
	}
	return FuncFacts{}, false
}

func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// ---- computation ----

// srcFunc is one source-declared function during fact computation.
type srcFunc struct {
	key     string
	callees []string // canonical keys of resolved outbound calls
}

// ComputeFacts builds the fact table for the given source packages
// (dependencies first — go list -deps order).
//
// Phase one collects, per declared function, its signature facts and
// resolved call edges; callees that are not source-declared contribute
// their seed facts immediately. Phase two unions seed overlays for
// source functions and propagates Outbound/Journals/AcksHTTP
// caller-ward to a fixpoint (a worklist over the reversed edges, so
// mutual recursion converges to the least fixpoint).
//
// Calls inside `go func() { ... }` bodies are excluded from the
// launching function's summary: the launch itself does not complete
// the callee's effects before returning. An async journal is therefore
// NOT a journal — exactly the PR-7 bug shape.
func ComputeFacts(srcPkgs []*Package) *FactSet {
	set := &FactSet{funcs: map[string]FuncFacts{}}

	var funcs []srcFunc
	callers := map[string][]int{} // callee key -> indexes into funcs

	for _, pkg := range srcPkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				sf := srcFunc{key: FuncKey(obj)}
				facts := set.funcs[sf.key]
				if signatureHasCtx(obj) {
					facts.HasCtx = true
				}
				if seed, ok := seedFacts(obj); ok {
					facts.merge(seed)
				}
				collectCallees(pkg, fd.Body, &sf)
				set.funcs[sf.key] = facts
				funcs = append(funcs, sf)
			}
		}
	}

	// Callees outside the source set (the standard library) contribute
	// their seed facts now, so the fixpoint can read them.
	set.seedCallees(srcPkgs)

	for i := range funcs {
		for _, calleeKey := range funcs[i].callees {
			callers[calleeKey] = append(callers[calleeKey], i)
		}
	}

	// Fixpoint: start with every function dirty, pull callee facts in.
	work := make([]int, len(funcs))
	inWork := make([]bool, len(funcs))
	for i := range funcs {
		work[i] = i
		inWork[i] = true
	}
	for len(work) > 0 {
		i := work[0]
		work = work[1:]
		inWork[i] = false
		f := funcs[i]
		cur := set.funcs[f.key]
		changed := false
		for _, calleeKey := range f.callees {
			cf, ok := set.funcs[calleeKey]
			if !ok {
				continue
			}
			prop := FuncFacts{}
			if cf.Outbound {
				prop.Outbound, prop.OutboundVia = true, calleeKey
			}
			if cf.Journals {
				prop.Journals, prop.JournalsVia = true, calleeKey
			}
			if cf.AcksHTTP {
				prop.AcksHTTP, prop.AcksVia = true, calleeKey
			}
			if cur.merge(prop) {
				changed = true
			}
		}
		if changed {
			set.funcs[f.key] = cur
			for _, ci := range callers[f.key] {
				if !inWork[ci] {
					work = append(work, ci)
					inWork[ci] = true
				}
			}
		}
	}
	return set
}

// collectCallees records the canonical keys of every resolved call in
// body, skipping goroutine-literal bodies (see ComputeFacts), and
// stores seed facts for non-source callees into the set lazily via the
// caller (the callee key alone is enough — ForFunc falls back to seeds,
// and ComputeFacts pre-stores seeds below).
func collectCallees(pkg *Package, body *ast.BlockStmt, sf *srcFunc) {
	ast.Inspect(body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			// Arguments to the launched call evaluate synchronously;
			// the launched body does not.
			for _, arg := range g.Call.Args {
				ast.Inspect(arg, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok {
						if fn := CalleeFunc(pkg.Info, call); fn != nil {
							sf.callees = append(sf.callees, FuncKey(fn))
						}
					}
					return true
				})
			}
			// The launched call itself — literal body or `go s.writer()`
			// — contributes no edge: the launch is asynchronous.
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := CalleeFunc(pkg.Info, call); fn != nil {
				sf.callees = append(sf.callees, FuncKey(fn))
			}
		}
		return true
	})
}

// seedCallees walks the same calls as collectCallees and stores seed
// facts for callees the source set does not cover, so propagation sees
// them.
func (s *FactSet) seedCallees(pkgs []*Package) {
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := CalleeFunc(pkg.Info, call)
				if fn == nil {
					return true
				}
				key := FuncKey(fn)
				if _, ok := s.funcs[key]; ok {
					return true
				}
				if seed, ok := seedFacts(fn); ok {
					s.funcs[key] = seed
				}
				return true
			})
		}
	}
}

// signatureHasCtx reports whether fn's parameters include a
// context.Context or an *http.Request (which carries one).
func signatureHasCtx(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		if isNamed(t, "context", "Context") {
			return true
		}
		if p, ok := t.(*types.Pointer); ok && isNamed(p.Elem(), "net/http", "Request") {
			return true
		}
	}
	return false
}

func isNamed(t types.Type, pkgPath, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// CalleeFunc resolves the *types.Func a call expression invokes, or nil
// for dynamic calls through function values.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
