// Package syncerr flags discarded errors from Sync, Flush and Close on
// the durability-critical packages' file handles.
//
// The WAL's contract — a 202 ack means the bytes are on stable storage —
// dies silently when a write-path Sync or Close error is dropped: the
// kernel reports delayed write failures on exactly those calls. PR 2
// shipped three such drops in internal/wal (the scan-path rc.Close, the
// repair-path and checkpoint-path l.f.Close) and each had to be caught
// by a human. This analyzer makes the drop mechanical to catch:
//
//   - a bare call statement `x.Sync()`, `x.Flush()` or `x.Close()`
//     whose error result is discarded is always a finding;
//   - `defer x.Close()` is additionally a finding when x's static type
//     can write (implements io.Writer): deferring discards the
//     flush-on-close error of a file that may hold dirty data. Deferred
//     closes of read-only handles stay idiomatic.
//
// Compliant forms: capture the error into the surrounding error path,
// or discard it visibly with `_ = x.Close()` when a comment can justify
// why the error is meaningless there.
package syncerr

import (
	"go/ast"
	"go/types"

	"alex/internal/analysis"
)

// Analyzer is the syncerr checker, scoped to the write-ahead log, the
// serving layer, the fleet router, the fault-injecting transport, the
// synthetic dataset writer and the cmd/ tools — the packages whose
// errors back durability promises (the router relays acks whose meaning
// is "the owning shard fsynced"; faultnet sits on that path in chaos
// drills, where a dropped error would fake a fault; synth and the tools
// write graph, link and result files whose silent truncation corrupts
// every downstream run).
var Analyzer = &analysis.Analyzer{
	Name: "syncerr",
	Match: func(p string) bool {
		return analysis.PathHasAny(p, "alex/internal/wal", "alex/internal/server", "alex/internal/fleet", "alex/internal/faultnet", "alex/internal/store", "alex/internal/synth", "alex/cmd")
	},
	Run: run,
}

// checked are the method names whose single error result must not be
// dropped.
var checked = map[string]bool{"Sync": true, "Flush": true, "Close": true}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				if call, name, ok := checkedCall(pass, stmt.X); ok {
					pass.Reportf(call.Pos(), "discarded error from %s; fold it into the surrounding error path (or assign to _ to discard explicitly)", name)
				}
			case *ast.DeferStmt:
				if call, name, ok := checkedCall(pass, stmt.Call); ok && writable(pass, call) {
					pass.Reportf(stmt.Pos(), "deferred %s on a writable file discards its flush-on-close error; close explicitly on the success path", name)
				}
			}
			// Keep descending: a func literal inside a defer can still
			// contain bare call statements.
			return true
		})
	}
	return nil
}

// checkedCall reports whether expr is a niladic method call named
// Sync/Flush/Close returning exactly one error, i.e. a call whose only
// product is the error being dropped. name describes it for the
// diagnostic.
func checkedCall(pass *analysis.Pass, expr ast.Expr) (*ast.CallExpr, string, bool) {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return nil, "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !checked[sel.Sel.Name] {
		return nil, "", false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil, "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Results().Len() != 1 {
		return nil, "", false
	}
	if !isErrorType(sig.Results().At(0).Type()) {
		return nil, "", false
	}
	return call, types.ExprString(sel) + "()", true
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// writable reports whether the receiver of call statically implements
// io.Writer — the handles whose Close can surface a failed flush.
func writable(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel := call.Fun.(*ast.SelectorExpr) // checkedCall established the shape
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok {
		return false
	}
	return types.Implements(tv.Type, ioWriter) ||
		types.Implements(types.NewPointer(tv.Type), ioWriter)
}

// ioWriter is io.Writer built from scratch so the analyzer needs no
// import lookup.
var ioWriter = types.NewInterfaceType([]*types.Func{
	types.NewFunc(0, nil, "Write", types.NewSignatureType(nil, nil, nil,
		types.NewTuple(types.NewVar(0, nil, "p", types.NewSlice(types.Typ[types.Byte]))),
		types.NewTuple(
			types.NewVar(0, nil, "n", types.Typ[types.Int]),
			types.NewVar(0, nil, "err", types.Universe.Lookup("error").Type()),
		), false)),
}, nil).Complete()
