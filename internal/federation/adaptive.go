// Adaptive execution: the join order of a group is not compiled into
// its plan but chosen while the group runs. At every stage boundary the
// stage loop (evalTriples) asks the ranker (nextPattern, plan.go) which
// of the patterns still to run is cheapest against the live row count,
// and adaptiveCost prices each by what has been seen: this query's own
// counters, then the cardinalities earlier queries folded into the
// plan's obsTable, then a static CountMatch estimate. A plan that has
// learned nothing therefore executes the greedy order of those static
// estimates; when an estimate is wrong — correlated patterns, skewed
// fan-out — the first execution pays for it, records what it saw, and
// the next one over the cached plan ranks by it. There is no setting:
// a static order is what the ranker produces before it has seen
// anything, and a group of fewer than two patterns is never ranked.
//
// Ranking never moves the answer: the ranker only produces binding-safe
// orders (a pattern may not steal a variable's first binding from an
// earlier-written pattern), and any binding-safe order is
// answer-identical — the invariant the golden harness enforces. Ties
// break toward written order, so the chosen order is a pure function of
// the query and the observation sequence. This is why ranking happens
// at chunk (stage) boundaries rather than per tuple as in ADQUEX:
// routing individual tuples through different operator orders would
// make provenance and row production order-dependent on scheduling;
// see DESIGN.md decision 15.
package federation

// adaptiveCost estimates what executing pattern i next would cost, in
// rows. Preference order: this query's own observation of the stage
// (only available when the group re-runs per row, e.g. under
// OPTIONAL), then the plan's learned table from earlier queries, then
// the static CountMatch estimate — so the first query under a fresh
// plan runs the greedy order of the static estimates. Observed
// expansions are per-input-row and scale with the live row count, which
// is the whole point: a stage that looked cheap statically but fanned
// out 8× per row is re-costed against reality.
func (f *Federator) adaptiveCost(ec *evalCtx, g *cgroup, i, nrows int, bound []bool) float64 {
	sid := g.first + i
	if per, ok := ec.stats.stages[sid].expansion(); ok {
		return float64(nrows) * per
	}
	if per, ok := ec.learnedExpansion(sid); ok {
		return float64(nrows) * per
	}
	return float64(f.estimatePattern(&ec.pats[sid], bound))
}
