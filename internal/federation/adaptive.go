// Adaptive execution: mid-query re-planning at chunk boundaries. The
// planner (plan.go) orders a group's patterns once, from CountMatch
// estimates; when an estimate is wrong — correlated patterns, skewed
// fan-out — the whole query pays for it. With Options.ReplanEvery > 0
// the stage loop (evalTriples) instead re-ranks the *remaining*
// unexecuted patterns after every ReplanEvery executed stages, with
// the same ranker (rankPatterns) priced by what this query (and,
// through the plan's obsTable, earlier queries) actually observed.
//
// Re-planning never moves the answer: the ranker only produces
// binding-safe orders (a pattern may not steal a variable's first
// binding from an earlier-written pattern), and any binding-safe order
// is answer-identical — the invariant the golden harness enforces.
// Ties still break toward written order, so the chosen order is a pure
// function of the query and the observation sequence. This is why
// re-planning happens at chunk (stage) boundaries rather than per
// tuple as in ADQUEX: routing individual tuples through different
// operator orders would make provenance and row production
// order-dependent on scheduling; see DESIGN.md decision 15.
package federation

// latencyWeightMillis scales observed per-source probe latency into a
// cost multiplier: a pattern whose candidate sources took
// latencyWeightMillis to probe doubles its estimated cost. Local
// in-memory sources probe in microseconds, which quantizes to zero and
// leaves their costs untouched.
const latencyWeightMillis = 100

// adaptiveCost estimates what executing pattern i next would cost, in
// rows. Preference order: this query's own observation of the stage
// (only available when the group re-runs per row, e.g. under
// OPTIONAL), then the plan's learned table from earlier queries, then
// the static CountMatch estimate — so the first query under a cold
// plan ranks exactly as at plan time. Observed expansions are
// per-input-row and scale with the live row count, which is the whole
// point: a stage that looked cheap statically but fanned out 8× per
// row is re-costed against reality. Slow sources surcharge every
// pattern that must touch them, by observed probe latency.
func (f *Federator) adaptiveCost(ec *evalCtx, g *cgroup, i, nrows int, bound []bool) float64 {
	sid := g.first + i
	pat := &ec.pats[sid]
	var cost float64
	if per, ok := ec.stats.stages[sid].expansion(); ok {
		cost = float64(nrows) * per
	} else if per, ok := ec.learnedExpansion(sid); ok {
		cost = float64(nrows) * per
	} else {
		cost = float64(f.estimatePattern(pat, bound))
	}
	var maxMs int64
	for _, si := range f.candidateSources(pat) {
		if ms := ec.stats.probeMillis(si); ms > maxMs {
			maxMs = ms
		}
	}
	if maxMs > 0 {
		cost *= 1 + float64(maxMs)/latencyWeightMillis
	}
	return cost
}
