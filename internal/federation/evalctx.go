package federation

import "context"

// evalCtx is the state of one evaluation: the request context it stops
// at, and what the ranker reads. Every source is a local store, so the
// context's deadline is the one way an evaluation can fail. An evalCtx
// belongs to the one goroutine that evaluates the query.
type evalCtx struct {
	ctx  context.Context
	left int // steps until cancelled next looks at ctx
	// stats is this query's observation table; nil when no group of the
	// plan holds two patterns, so nothing is ranked (see plan.obs).
	stats *RuntimeStats
	// learned is the plan's validated cross-query observation table, or
	// nil when it holds no usable (or only stale) data.
	learned *obsTable
	// pats is the plan's compiled pattern table by stage id: plan.pats
	// itself, or a copy with constants resolved afresh when the plan was
	// compiled before the dictionary held them all.
	pats []cpattern
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

// learnedExpansion returns the learned per-row multiplier of a stage
// from earlier queries over the same cached plan, if any.
func (ec *evalCtx) learnedExpansion(stage int) (float64, bool) {
	if ec.learned == nil {
		return 0, false
	}
	return ec.learned.expansion(stage)
}
