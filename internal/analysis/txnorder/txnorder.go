// Package txnorder extends ackorder's fsync-before-ack contract across
// functions and across the fleet: on the router's fan-out path, every
// owner's durable journal record must dominate the 202 ack — whether
// the journal write happens in this function, in a callee two packages
// away, or on a remote shard behind a /feedback RPC.
//
// PR 7's bug shape: the router's cross-shard feedback handler acked 202
// after fanning the batch out, but the fan-out was asynchronous — kill
// the router right after the ack and a shard that never got its slice
// forgets the batch. The fix journals (or collects every owner's ack)
// strictly before the 202. This analyzer replays that shape
// mechanically, on top of the facts framework:
//
//   - an "ack" is any call carrying a constant 202 argument whose
//     callee's facts say it writes an HTTP status (AcksHTTP) —
//     WriteHeader(202) itself, this package's writeJSON, or another
//     package's;
//   - a "barrier" is a call whose facts say Journals: (*wal.Log).Append
//     or anything that transitively reaches it, and the Client RPCs
//     whose non-error return means a remote shard journaled and fsynced
//     (Feedback, FeedbackResult);
//   - additionally — the fleet's scatter-gather idiom — a
//     sync.WaitGroup.Wait() call counts as a barrier when some `go`
//     statement earlier in the same function launches a body containing
//     a Journals call: the Wait is the point where the asynchronous
//     posts have provably completed. A `go` launch with no
//     dominating Wait before the ack is exactly the PR-7 bug and stays
//     a finding, because facts never credit a goroutine's effects to
//     its launcher (see ComputeFacts).
//
// Dominance is the same structural test ackorder uses: the barrier must
// execute on every path into the ack, so a post inside an `if` body, a
// select case or a closure does not count.
package txnorder

import (
	"go/ast"
	"go/types"

	"alex/internal/analysis"
	"alex/internal/analysis/ackorder"
)

// Analyzer is the txnorder checker, scoped to the serving layer and the
// fleet router — both ends of the router's fan-out path.
var Analyzer = &analysis.Analyzer{
	Name: "txnorder",
	Doc:  "flags fan-out 202 acks not dominated by every owner's durable journal write",
	Match: func(p string) bool {
		return analysis.PathHasAny(p, "alex/internal/server", "alex/internal/fleet")
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

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	// Goroutines that journal: their launch positions gate which
	// WaitGroup.Wait calls count as barriers.
	var journalGoPos []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if goJournals(pass, g) {
			journalGoPos = append(journalGoPos, g)
		}
		return true
	})

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
		if isWaitGroupWait(pass, call) {
			for _, g := range journalGoPos {
				if g.Pos() < call.Pos() {
					barrierPaths = append(barrierPaths, path)
					break
				}
			}
		}
		if facts.AcksHTTP && ackorder.Writes202(pass, call) {
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
			pass.Reportf(ack.Node().Pos(), "202 Accepted on the fan-out path without a dominating durable write; journal the record (or collect every owner's ack via WaitGroup.Wait) before acking")
		}
	}
}

// goJournals reports whether the launched body (a function literal, or
// a same-package function — resolved through its facts) contains a
// Journals call.
func goJournals(pass *analysis.Pass, g *ast.GoStmt) bool {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		found := false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if found {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if _, facts := pass.CallFacts(call); facts.Journals {
					found = true
				}
			}
			return true
		})
		return found
	}
	_, facts := pass.CallFacts(g.Call)
	return facts.Journals
}

// isWaitGroupWait matches sync.WaitGroup.Wait calls.
func isWaitGroupWait(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Name() != "Wait" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}
