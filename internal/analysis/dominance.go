// Structural dominance over Go's AST: one definition of "this call
// executes on every path into that one", for ackorder's
// fsync-before-ack contract and ctxflow's path walks.
package analysis

import (
	"go/ast"
	"go/token"
)

// NodePath is a node plus its ancestor chain from the analyzed body's
// root block down to the node itself.
type NodePath []ast.Node

// Node returns the path's final node.
func (p NodePath) Node() ast.Node { return p[len(p)-1] }

// WalkPaths visits every node under root, handing fn the full ancestor
// path.
func WalkPaths(root ast.Node, fn func(NodePath)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		fn(append(NodePath(nil), stack...))
		return true
	})
}

// Dominates reports whether the barrier at path b executes on every
// path that reaches the ack at path a. With structured control flow
// (no goto) that holds exactly when b appears strictly earlier in the
// source and b's chain below the deepest common ancestor never enters a
// conditionally-executed region: an if/else body, a switch or select
// clause, a loop body or post statement, or a function literal.
func Dominates(b, a NodePath) bool {
	if b.Node().Pos() >= a.Node().Pos() {
		return false
	}
	common := 0
	for common < len(b)-1 && common < len(a)-1 && b[common] == a[common] {
		common++
	}
	// b[common-1] is the deepest shared ancestor. Check every edge on
	// b's own chain below it, starting with the ancestor's edge into
	// b's branch: that is where then/else (and sibling-clause)
	// divergence shows up. A case/comm clause that contains BOTH nodes
	// gates them identically, so its edge is exempt at the shared level.
	for i := common - 1; i < len(b)-1; i++ {
		parent, child := b[i], b[i+1]
		if i == common-1 {
			switch parent.(type) {
			case *ast.CaseClause, *ast.CommClause:
				continue // same clause: sequential for both nodes
			}
		}
		if conditionalEdge(parent, child) {
			return false
		}
	}
	return true
}

// conditionalEdge reports whether child, as a direct AST child of
// parent, only executes conditionally relative to code after parent.
func conditionalEdge(parent, child ast.Node) bool {
	switch p := parent.(type) {
	case *ast.IfStmt:
		return child == p.Body || child == p.Else
	case *ast.ForStmt:
		return child == p.Body || child == p.Post
	case *ast.RangeStmt:
		return child == p.Body
	case *ast.CaseClause, *ast.CommClause:
		return true // switch/select bodies and even their exprs may not run
	case *ast.FuncLit:
		return true // a closure's body runs zero or more times, later
	case *ast.BinaryExpr:
		// Short-circuit operators: the right operand is conditional.
		if p.Op == token.LAND || p.Op == token.LOR {
			return child == p.Y
		}
	}
	return false
}
