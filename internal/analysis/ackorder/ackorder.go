// Package ackorder enforces the serving layer's fsync-before-ack
// contract: a 202 Accepted must never leave a handler unless every path
// to it already passed a write-ahead journal append.
//
// alexd's 202 on /feedback is a durability promise — "this item
// survives any crash" (internal/wal, DESIGN.md). PR 2's review found
// the ack and the append could be reordered by an innocent-looking
// refactor, and only a human noticed. This analyzer pins the order
// mechanically.
//
// In the scoped package, writing status 202 (http.StatusAccepted, the
// protocol's mutation-ack status; plain 2xx reads like /query's 200 OK
// carry no durability promise and are exempt) is a finding unless the
// write is dominated by a durable append:
//
//   - an "ack" is a call to a function whose interprocedural facts say
//     it reaches net/http.ResponseWriter.WriteHeader (AcksHTTP — e.g.
//     writeJSON, in this package or another), with a constant 202
//     argument;
//   - a "barrier" is a call whose facts say it journals durably
//     (Journals): (*wal.Log).Append itself, any function that
//     transitively contains one (like Server.accept, whose durable
//     path appends and fsyncs before returning), or a Client RPC whose
//     success means a remote shard journaled;
//   - "dominated" means the barrier executes on every path into the
//     ack: it appears earlier in the same or an enclosing block (or an
//     if/switch init clause), not hidden inside a conditional branch,
//     loop body or closure.
//
// The dominance test is structural (Go's structured control flow, no
// goto), so a barrier inside an `if` body or a `select` case does not
// count — exactly the shapes that reorder acks ahead of appends.
// Before the facts framework both closures were computed per package;
// facts now carry them across package boundaries.
package ackorder

import (
	"go/ast"
	"go/constant"

	"alex/internal/analysis"
)

// Analyzer is the ackorder checker, scoped to the serving layer where
// the 202 contract lives.
var Analyzer = &analysis.Analyzer{
	Name: "ackorder",
	Doc:  "flags 202 acks not dominated by a write-ahead journal append",
	Match: func(p string) bool {
		return analysis.PathHasAny(p, "alex/internal/server")
	},
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn.Body)
		}
	}
	return nil
}

// checkFunc reports every 202 ack in body that no barrier call
// dominates. Function literals are analyzed as part of the enclosing
// body: a barrier inside a closure does not dominate statements outside
// it (the closure may never run), which the path test encodes.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	var barrierPaths, ackPaths []analysis.NodePath
	analysis.WalkPaths(body, func(path analysis.NodePath) {
		call, ok := path.Node().(*ast.CallExpr)
		if !ok {
			return
		}
		_, facts := pass.CallFacts(call)
		if facts.Journals {
			barrierPaths = append(barrierPaths, path)
		}
		if facts.AcksHTTP && writes202(pass, call) {
			ackPaths = append(ackPaths, path)
		}
	})
	for _, ack := range ackPaths {
		dominated := false
		for _, b := range barrierPaths {
			if analysis.Dominates(b, ack) {
				dominated = true
				break
			}
		}
		if !dominated {
			pass.Reportf(ack.Node().Pos(), "202 Accepted written without a dominating journal append; the ack is a durability promise — append (and fsync) to the WAL first")
		}
	}
}

// writes202 reports whether call carries a constant 202 status
// argument — the shape that, on a status-writing callee (AcksHTTP),
// makes the call an ack: ResponseWriter.WriteHeader(202) directly, or
// writeJSON(w, http.StatusAccepted, v).
func writes202(pass *analysis.Pass, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		tv, ok := pass.TypesInfo.Types[arg]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
			continue
		}
		if v, ok := constant.Int64Val(tv.Value); ok && v == 202 {
			return true
		}
	}
	return false
}
