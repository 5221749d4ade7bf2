package federation

import (
	"context"
	"slices"

	"alex/internal/links"
	"alex/internal/rdf"
	"alex/internal/sparql"
)

// evalCtx is the state of one evaluation: the request context it stops
// at, and what the stage loop and the ranker read. Every source is a
// local store, so the context's deadline is the one way an evaluation
// can fail. An evalCtx belongs to the one goroutine that evaluates the
// query.
type evalCtx struct {
	ctx  context.Context
	left int // steps until cancelled next looks at ctx
	// stats holds this evaluation's row counts by stage id, what the
	// ranker prices a re-entered group's stages by (adaptive.go); nil
	// when no group of the plan holds two patterns, so nothing is ranked.
	stats []stageCount
	// pats is the pattern table by stage id: plan.pats itself, or a copy
	// whose constants are this text's (bindConsts).
	pats []cpattern
	// exprs holds by filter id the FILTER expressions bound to this
	// text's constants; nil, or nil at an id, where the plan's serves.
	exprs []sparql.Expr
	// root is the provenance of the one row evaluation starts from.
	root [1]*links.Frozen
}

func newEvalCtx(ctx context.Context, p *plan) *evalCtx {
	ec := &evalCtx{ctx: ctx, pats: p.pats}
	if p.ranks {
		ec.stats = make([]stageCount, len(p.pats))
	}
	return ec
}

// record notes one execution of stage: in rows entered, out rows were
// emitted.
func (ec *evalCtx) record(stage, in, out int) {
	s := &ec.stats[stage]
	s.in += uint64(in)
	s.out += uint64(out)
	s.runs++
}

// expr returns the expression flt evaluates in this evaluation.
func (ec *evalCtx) expr(flt *cfilter) sparql.Expr {
	if ec.exprs != nil && ec.exprs[flt.id] != nil {
		return ec.exprs[flt.id]
	}
	return flt.expr
}

// bindConsts makes ec evaluate p with consts, the constants of a text of p's
// shape (nil: the text p was planned from). A pattern constant is
// looked up in the dictionary when the text's differs from the plan's,
// or when the plan's was absent from the dictionary when it was
// compiled; a term the dictionary lacks is rdf.NoID and matches
// nothing. A FILTER that reads constants is bound to the text's.
func (f *Federator) bindConsts(ec *evalCtx, p *plan, consts []string) {
	if consts != nil && slices.Equal(consts, p.consts) {
		consts = nil
	}
	if len(p.binds) > 0 && (consts != nil || p.unresolved) {
		ec.pats = slices.Clone(p.pats)
		for _, b := range p.binds {
			c := ec.pats[b.stage].node(b.pos)
			switch {
			case consts != nil && !b.lift.Equal(consts, p.consts):
				c.id, _ = f.dict.Lookup(b.lift.Term(consts))
			case c.id == rdf.NoID:
				c.id, _ = f.dict.Lookup(b.term)
			}
		}
	}
	if consts == nil {
		return
	}
	for _, flt := range p.filters {
		if e := sparql.BindExpr(flt.expr, consts); e != flt.expr {
			if ec.exprs == nil {
				ec.exprs = make([]sparql.Expr, len(p.filters))
			}
			ec.exprs[flt.id] = e
		}
	}
}

// checkInterval is how many steps of evaluation — input rows entering a
// stage, rows a pattern emits — pass between two looks at the context.
const checkInterval = 1024

// cancelled counts one step of evaluation and reports whether the
// query's context is done, looking at it on the first step and then once
// per checkInterval: an evaluation outlives its deadline by at most
// that many steps, and a query that is never cancelled pays a decrement
// per step. Once the context is done the countdown is left run out, so
// every later step finds it done too.
func (ec *evalCtx) cancelled() bool {
	if ec.left--; ec.left > 0 {
		return false
	}
	if ec.ctx.Err() != nil {
		return true
	}
	ec.left = checkInterval
	return false
}
