// Package ctxflow enforces deadline propagation on the fleet's request
// paths: every outbound request made from internal/server or
// internal/fleet must be scopeable by the caller's context, and no
// request path may manufacture an unbounded context.Background().
//
// The fleet's availability story (hedged reads, circuit breakers,
// scatter-gather deadlines — DESIGN.md) assumes a slow shard can always
// be abandoned. One convenience call that ignores the request context
// — client.Links() with a baked-in Background() — reintroduces the
// unbounded wait the whole design exists to remove, and no local
// review can see it once the Background() is two packages away. The
// facts framework makes the property compositional; each function is
// held to three local rules, and their conjunction gives the global
// one by induction over the call graph:
//
//   - no call to a net/http entry point that cannot carry a context:
//     http.Get/Head/Post/PostForm, the Client equivalents, and
//     http.NewRequest (use NewRequestWithContext);
//   - no bare context.Background()/context.TODO(): the value must be
//     consumed directly by a context.With{Cancel,Timeout,Deadline,...}
//     wrapper, the accepted idiom for lifecycle-scoped (non-request)
//     work like health probes and background replication — those put a
//     bound on the work even though no caller is waiting;
//   - in a function that itself has a context to give (a ctx or
//     *http.Request parameter), no call to a module function whose
//     facts say it performs outbound requests (Outbound) but whose
//     signature accepts no context (!HasCtx): the caller's deadline
//     dies at that call. Add a Context variant and call that instead.
//     Callers without a ctx of their own — lifecycle loops like
//     health pollers and replicators — are exempt from this rule:
//     rule two already forces them to bound their work with With*,
//     and they have no inherited deadline to lose.
//
// Convenience wrappers without a ctx parameter stay legal for the cmd/
// tools (an interactive REPL has no deadline to propagate); the scoped
// daemon packages must use the Context variants.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"alex/internal/analysis"
)

// Analyzer is the ctxflow checker, scoped to the packages whose
// outbound requests serve other requests — where an unbounded wait
// stalls a caller that expected a deadline.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "flags outbound requests that cannot be scoped by the caller's context",
	Match: func(p string) bool {
		return analysis.PathHasAny(p, "alex/internal/server", "alex/internal/fleet")
	},
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		analysis.WalkPaths(file, func(path analysis.NodePath) {
			call, ok := path.Node().(*ast.CallExpr)
			if !ok {
				return
			}
			fn := analysis.CalleeFunc(pass.TypesInfo, call)
			if fn == nil {
				return
			}
			checkCall(pass, path, call, fn)
		})
	}
	return nil
}

func checkCall(pass *analysis.Pass, path analysis.NodePath, call *ast.CallExpr, fn *types.Func) {
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	name := fn.Name()

	switch pkgPath {
	case "context":
		if name == "Background" || name == "TODO" {
			if !wrappedByWith(pass, path) {
				pass.Reportf(call.Pos(), "context.%s() outside a context.With* wrapper; request paths must derive from the caller's ctx, lifecycle scopes must bound themselves with WithTimeout/WithCancel", name)
			}
		}
		return
	case "net/http":
		if noCtxHTTPEntry(fn) {
			fix := "use (*http.Client).Do with http.NewRequestWithContext"
			if name == "NewRequest" {
				fix = "use http.NewRequestWithContext"
			}
			pass.Reportf(call.Pos(), "net/http.%s cannot carry the caller's context; %s", callName(fn), fix)
		}
		return
	}

	// Module functions: outbound but unscopeable — flagged only when the
	// enclosing function has a context it is failing to pass down.
	if strings.HasPrefix(pkgPath, "alex/") {
		if facts, ok := pass.FuncFacts(fn); ok && facts.Outbound && !facts.HasCtx && callerHasCtx(pass, path) {
			pass.Reportf(call.Pos(), "call to %s performs outbound requests but accepts no context; use its Context variant so the caller's deadline propagates", analysis.FuncKey(fn))
		}
	}
}

// callerHasCtx reports whether the function declaration enclosing the
// node at the end of path has a context to propagate — a
// context.Context or *http.Request parameter, per the HasCtx fact of
// its own object. Calls inside func literals are attributed to the
// literal's enclosing declaration: a goroutine launched by a handler
// inherits the handler's deadline obligation.
func callerHasCtx(pass *analysis.Pass, path analysis.NodePath) bool {
	for i := len(path) - 1; i >= 0; i-- {
		decl, ok := path[i].(*ast.FuncDecl)
		if !ok {
			continue
		}
		fn, ok := pass.TypesInfo.Defs[decl.Name].(*types.Func)
		if !ok {
			return false
		}
		facts, ok := pass.FuncFacts(fn)
		return ok && facts.HasCtx
	}
	return false
}

// wrappedByWith reports whether the Background()/TODO() call at the end
// of path is directly an argument of a context.With* constructor — the
// make-then-bound idiom.
func wrappedByWith(pass *analysis.Pass, path analysis.NodePath) bool {
	if len(path) < 2 {
		return false
	}
	parent, ok := path[len(path)-2].(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := analysis.CalleeFunc(pass.TypesInfo, parent)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return false
	}
	switch fn.Name() {
	case "WithCancel", "WithCancelCause", "WithTimeout", "WithTimeoutCause",
		"WithDeadline", "WithDeadlineCause":
		return true
	}
	return false
}

// noCtxHTTPEntry matches the net/http API surface that performs or
// prepares a request with no way to attach a context.
func noCtxHTTPEntry(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	name := fn.Name()
	if sig.Recv() == nil {
		switch name {
		case "Get", "Head", "Post", "PostForm", "NewRequest":
			return true
		}
		return false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != "Client" {
		return false
	}
	switch name {
	case "Get", "Head", "Post", "PostForm":
		return true
	}
	return false
}

func callName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}
