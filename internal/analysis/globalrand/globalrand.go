// Package globalrand forbids the process-global math/rand state.
//
// ALEX's reproduction of the paper's Figures 2–4 is bit-for-bit
// deterministic because every random draw — candidate sampling, oracle
// noise, fault-injection jitter — flows through an explicitly seeded *rand.Rand
// that the caller owns (core.Config.Seed, the -seed flags of the
// binaries). Top-level math/rand functions (rand.Intn, rand.Shuffle,
// rand.Seed, ...) draw from a shared, process-global source instead:
// one stray call re-interleaves every consumer and the experiment
// figures stop reproducing. math/rand/v2's top-level functions are
// worse still — they cannot be seeded at all.
//
// Allowed: rand.New, rand.NewSource and rand.NewZipf (constructors of
// owned state) and every method on a *rand.Rand value.
package globalrand

import (
	"go/ast"
	"go/types"

	"alex/internal/analysis"
)

// Analyzer is the globalrand checker. It runs over the whole module —
// library, internal packages, commands and examples alike — with an
// intentionally empty exemption list: even the demo binaries take a
// -seed flag instead of touching global state.
var Analyzer = &analysis.Analyzer{
	Name: "globalrand",
	Doc:  "forbids top-level math/rand functions; randomness must flow through a seeded *rand.Rand",
	Run:  run,
}

// constructors build caller-owned state and are therefore allowed.
var constructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			path := fn.Pkg().Path()
			if path != "math/rand" && path != "math/rand/v2" {
				return true
			}
			sig := fn.Type().(*types.Signature)
			if sig.Recv() != nil || constructors[fn.Name()] {
				return true // *rand.Rand methods and constructors are fine
			}
			pass.Reportf(call.Pos(), "call to top-level %s.%s uses the process-global random source; draw from an explicitly seeded *rand.Rand instead", path, fn.Name())
			return true
		})
	}
	return nil
}

// calleeFunc resolves the called function object, if the callee is a
// plain identifier or selector.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
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
