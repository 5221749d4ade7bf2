// Package gotrack forbids orphan goroutines in the daemon packages:
// every goroutine launched in internal/server, internal/fleet,
// internal/faultnet and internal/store must be tied to a shutdown or
// completion path.
//
// alexd's graceful drain (Server.Close) and the chaos tests' crash
// simulation both assume the process knows about every goroutine it
// started: an untracked `go` statement keeps running through shutdown,
// races teardown, and leaks under the race detector's radar. The
// serving layer's writer goroutine signals completion with
// `defer close(s.done)`; request-scoped helpers bound their lifetime
// with a context. This analyzer requires every launch to show one such
// tie, structurally:
//
//   - the launched body does `defer close(ch)` on a done-channel, or
//     calls Done on a sync.WaitGroup;
//   - the launch site is preceded (same or enclosing block) by
//     wg.Add on a sync.WaitGroup — the classic Add/go/Done triple,
//     which also covers launches of functions defined elsewhere;
//   - the launched body is context-scoped: it uses a context.Context
//     value (selects on Done or passes it to its callees, which is how
//     the router's hedged shard requests are cancelled); or
//   - the launched body receives from a struct{} stop-channel.
//
// Launched named functions and methods of the same package are checked
// by their declared body; for functions of other packages only the
// launch-site WaitGroup rule can vouch, so `go srv.ServeConn(conn)`
// with no Add is a finding — the shape the net/rpc worker (deleted
// since) first shipped with.
package gotrack

import (
	"go/ast"
	"go/token"
	"go/types"

	"alex/internal/analysis"
)

// Analyzer is the gotrack checker, scoped to the long-running daemon
// packages — including the cmd/ daemons themselves, whose mains launch
// serve loops and signal handlers that must not outlive shutdown.
var Analyzer = &analysis.Analyzer{
	Name: "gotrack",
	Doc:  "flags goroutines not tied to a WaitGroup, done-channel, context, or stop-channel",
	Match: func(p string) bool {
		return analysis.PathHasAny(p, "alex/internal/server", "alex/internal/fleet", "alex/internal/faultnet", "alex/internal/store", "alex/cmd")
	},
	Run: run,
}

func run(pass *analysis.Pass) error {
	decls := indexFuncs(pass)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if launchSiteTracked(pass, file, g) || bodyTracked(pass, decls, g.Call) {
				return true
			}
			pass.Reportf(g.Pos(), "goroutine is not tied to a WaitGroup, done-channel, context, or stop-channel; orphan goroutines outlive the daemon's shutdown path")
			return true
		})
	}
	return nil
}

// indexFuncs maps package function objects to declarations so a
// `go s.writer()` launch can be vouched for by writer's own body.
func indexFuncs(pass *analysis.Pass) map[*types.Func]*ast.FuncDecl {
	idx := map[*types.Func]*ast.FuncDecl{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
					idx[obj] = fn
				}
			}
		}
	}
	return idx
}

// launchSiteTracked reports whether a wg.Add call precedes the go
// statement in its block or an enclosing one — the Add/go/Done idiom.
func launchSiteTracked(pass *analysis.Pass, file *ast.File, g *ast.GoStmt) bool {
	found := false
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return !found
		}
		// Does this block contain g (possibly nested) after a sibling
		// wg.Add statement?
		containsGo := false
		for _, stmt := range block.List {
			if containsNode(stmt, g) {
				containsGo = true
				break
			}
		}
		if !containsGo {
			return false // don't descend into unrelated blocks
		}
		for _, stmt := range block.List {
			if stmt.Pos() >= g.Pos() {
				break
			}
			if stmtCallsWaitGroupAdd(pass, stmt) {
				found = true
				return false
			}
		}
		return !found
	}
	ast.Inspect(file, walk)
	return found
}

func stmtCallsWaitGroupAdd(pass *analysis.Pass, stmt ast.Stmt) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isWaitGroupMethod(pass, call, "Add") {
			found = true
			return false
		}
		return !found
	})
	return found
}

func containsNode(root ast.Node, target ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}

// bodyTracked resolves the launched function's body — a literal, or a
// same-package declaration — and looks for a completion or shutdown tie.
func bodyTracked(pass *analysis.Pass, decls map[*types.Func]*ast.FuncDecl, call *ast.CallExpr) bool {
	var body *ast.BlockStmt
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		body = fun.Body
	default:
		if isHTTPServerServe(pass, call) {
			return true // `go srv.ListenAndServe()`: bounded by srv.Shutdown
		}
		if fn := calleeFunc(pass, call); fn != nil {
			if decl := decls[fn]; decl != nil {
				body = decl.Body
			}
		}
	}
	if body == nil {
		return false
	}
	tracked := false
	ast.Inspect(body, func(n ast.Node) bool {
		if tracked {
			return false
		}
		switch n := n.(type) {
		case *ast.DeferStmt:
			// defer close(done) — completion signal the owner waits on.
			if isCloseBuiltin(pass, n.Call) {
				tracked = true
			}
			// defer wg.Done()
			if isWaitGroupMethod(pass, n.Call, "Done") {
				tracked = true
			}
		case *ast.CallExpr:
			if isWaitGroupMethod(pass, n, "Done") {
				tracked = true
			}
			// An *http.Server serve loop: its lifetime is owned by the
			// Server value — Shutdown/Close ends it — so the server,
			// not a channel, is the tracking handle. The idiomatic
			// `go srv.ListenAndServe()` in the daemons' mains is tied.
			if isHTTPServerServe(pass, n) {
				tracked = true
			}
		case *ast.Ident:
			// Any use of a context.Context value: the goroutine's work is
			// cancel-scoped through it (the router's hedged shard request
			// passes its ctx to the shard client, which honors it).
			if obj := pass.TypesInfo.ObjectOf(n); obj != nil && isContextType(obj.Type()) {
				tracked = true
			}
		case *ast.UnaryExpr:
			// <-stop on a struct{} channel.
			if n.Op == token.ARROW && isStructChan(pass, n.X) {
				tracked = true
			}
		}
		return !tracked
	})
	return tracked
}

func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// isHTTPServerServe matches the blocking serve methods of
// *net/http.Server.
func isHTTPServerServe(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass, call)
	if fn == nil {
		return false
	}
	switch fn.Name() {
	case "ListenAndServe", "ListenAndServeTLS", "Serve", "ServeTLS":
	default:
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Server" && obj.Pkg() != nil && obj.Pkg().Path() == "net/http"
}

func isCloseBuiltin(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "close"
}

func isWaitGroupMethod(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

func isStructChan(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok {
		return false
	}
	ch, ok := tv.Type.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}
