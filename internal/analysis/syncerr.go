// Package analysis is the module's one static check, syncerr: it flags
// discarded errors from Sync, Flush and Close in the packages whose
// errors back durability promises.
//
// The WAL's contract — a 202 ack means the bytes are on stable storage —
// dies silently when a write-path Sync or Close error is dropped: the
// kernel reports delayed write failures on exactly those calls. The
// first journal shipped three such drops in internal/wal (the scan-path
// rc.Close, the repair-path and checkpoint-path l.f.Close) and each had
// to be caught by a human. This check makes the drop mechanical to catch:
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
// why the error is meaningless there. A deliberate exception is the
// directive
//
//	//lint:ignore syncerr reason the drop is harmless
//
// on the finding's line or the line above; one with no reason does
// nothing (an undocumented exemption is a bug). TestTreeLintsClean runs
// the check over the whole module in `go test ./...`.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// scope lists the write-ahead log, the serving layer, the fleet router,
// the fault-injecting transport, the segment store, the synthetic
// dataset writer and the cmd/ tools — the packages whose errors back
// durability promises (the router relays acks whose meaning is "the
// owning shard fsynced"; faultnet sits on that path in chaos drills,
// where a dropped error would fake a fault; synth and the tools write
// graph, link and result files whose silent truncation corrupts every
// downstream run).
var scope = []string{"alex/internal/wal", "alex/internal/server", "alex/internal/fleet", "alex/internal/faultnet", "alex/internal/store", "alex/internal/synth", "alex/cmd"}

// inScope reports whether import path p is one of scope's packages or
// inside one of them.
func inScope(p string) bool {
	for _, s := range scope {
		if p == s || strings.HasPrefix(p, s+"/") {
			return true
		}
	}
	return false
}

// Finding is one dropped error.
type Finding struct {
	Pos     token.Position
	Message string
}

func (f Finding) String() string { return fmt.Sprintf("%s: %s", f.Pos, f.Message) }

// line is one source line, the unit a directive covers.
type line struct {
	file string
	n    int
}

// Check returns pkg's findings in source order, minus those a
// `//lint:ignore syncerr <reason>` directive covers. It applies the
// rule whatever pkg's path: inScope picks the packages it guards.
func Check(pkg *Package) []Finding {
	ignored := map[line]bool{}
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				reason, ok := strings.CutPrefix(c.Text, "//lint:ignore syncerr ")
				if ok && strings.TrimSpace(reason) != "" {
					p := pkg.Fset.Position(c.Pos())
					ignored[line{p.Filename, p.Line}] = true
				}
			}
		}
	}
	var out []Finding
	report := func(pos token.Pos, format string, args ...any) {
		p := pkg.Fset.Position(pos)
		if !ignored[line{p.Filename, p.Line}] && !ignored[line{p.Filename, p.Line - 1}] {
			out = append(out, Finding{p, fmt.Sprintf(format, args...)})
		}
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				if call, name, ok := checkedCall(pkg.Info, stmt.X); ok {
					report(call.Pos(), "discarded error from %s; fold it into the surrounding error path (or assign to _ to discard explicitly)", name)
				}
			case *ast.DeferStmt:
				if call, name, ok := checkedCall(pkg.Info, stmt.Call); ok && writable(pkg.Info, call) {
					report(stmt.Pos(), "deferred %s on a writable file discards its flush-on-close error; close explicitly on the success path", name)
				}
			}
			// Keep descending: a func literal inside a defer can still
			// contain bare call statements.
			return true
		})
	}
	return out
}

// checked are the method names whose single error result must not be
// dropped.
var checked = map[string]bool{"Sync": true, "Flush": true, "Close": true}

// checkedCall reports whether expr is a niladic method call named
// Sync/Flush/Close returning exactly one error, i.e. a call whose only
// product is the error being dropped. name describes it for the
// finding.
func checkedCall(info *types.Info, expr ast.Expr) (*ast.CallExpr, string, bool) {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return nil, "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !checked[sel.Sel.Name] {
		return nil, "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil, "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Results().Len() != 1 || !types.Identical(sig.Results().At(0).Type(), errorType) {
		return nil, "", false
	}
	return call, types.ExprString(sel) + "()", true
}

var errorType = types.Universe.Lookup("error").Type()

// writable reports whether the receiver of call statically implements
// io.Writer — the handles whose Close can surface a failed flush.
func writable(info *types.Info, call *ast.CallExpr) bool {
	sel := call.Fun.(*ast.SelectorExpr) // checkedCall established the shape
	tv, ok := info.Types[sel.X]
	if !ok {
		return false
	}
	return types.Implements(tv.Type, ioWriter) ||
		types.Implements(types.NewPointer(tv.Type), ioWriter)
}

// ioWriter is io.Writer built from scratch so the check needs no
// import lookup.
var ioWriter = types.NewInterfaceType([]*types.Func{
	types.NewFunc(0, nil, "Write", types.NewSignatureType(nil, nil, nil,
		types.NewTuple(types.NewVar(0, nil, "p", types.NewSlice(types.Typ[types.Byte]))),
		types.NewTuple(
			types.NewVar(0, nil, "n", types.Typ[types.Int]),
			types.NewVar(0, nil, "err", errorType),
		), false)),
}, nil).Complete()
