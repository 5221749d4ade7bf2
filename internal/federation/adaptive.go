// Adaptive execution: the join order of a group is not compiled into
// its plan but chosen while the group runs. At every stage boundary the
// stage loop (evalTriples) asks the ranker (nextPattern, plan.go) which
// of the patterns still to run is cheapest against the live row count,
// and adaptiveCost prices each: by what this evaluation has seen the
// stage do, else by a static CountMatch estimate. A group that runs
// once therefore executes the greedy order of the static estimates; a
// group re-entered in the same evaluation (under an OPTIONAL, once per
// row) ranks its later entries by the row counts its earlier ones
// recorded. Nothing is carried from one evaluation to the next: a plan
// is immutable, a cached plan executes exactly the order an uncached
// one does, and the golden files pin that order. A plan serves every
// text of its shape (plancache.go), whose constants select different
// rows, so one text's cardinalities would be no guide to another's.
// There is no setting, and a group of fewer than two patterns is never
// ranked.
//
// Ranking never moves the answer: the ranker only produces binding-safe
// orders (a pattern may not steal a variable's first binding from an
// earlier-written pattern), and any binding-safe order is
// answer-identical — the invariant the golden harness enforces. Ties
// break toward written order, so the chosen order is a pure function of
// the query, the stores and the evaluation's own counts. This is why
// ranking happens at chunk (stage) boundaries rather than per tuple as
// in ADQUEX: routing individual tuples through different operator
// orders would make provenance and row production order-dependent on
// scheduling; see DESIGN.md decision 15.
package federation

// stageCount is one stage's observation in one evaluation: input
// rows, emitted rows, and how many executions contributed. A stage is
// counted once, at its boundary, rather than per emitted row, so
// observation costs the same whatever the result size.
type stageCount struct {
	in, out, runs uint64
}

// expansion returns the observed per-input-row output multiplier, or
// ok=false when the stage has never run with a non-empty input (an
// empty input observes nothing about selectivity).
func (s stageCount) expansion() (perRow float64, ok bool) {
	if s.runs == 0 || s.in == 0 {
		return 0, false
	}
	return float64(s.out) / float64(s.in), true
}

// adaptiveCost estimates what executing pattern i next would cost, in
// rows: this evaluation's own observation of the stage when it has one
// (only when the group re-runs, e.g. under OPTIONAL), else the static
// CountMatch estimate. An observed expansion is per input row and
// scales with the live row count: a stage that looked cheap statically
// but fanned out 8× per row is re-costed against what it did.
func (f *Federator) adaptiveCost(ec *evalCtx, g *cgroup, i, nrows int, bound []bool) float64 {
	sid := g.first + i
	if per, ok := ec.stats[sid].expansion(); ok {
		return float64(nrows) * per
	}
	return float64(f.estimatePattern(&ec.pats[sid], bound))
}

// AdaptiveStats returns the cumulative count of rankings made after a
// group's first stage, across the federator and all its WithLinks
// snapshots.
func (f *Federator) AdaptiveStats() (replans uint64) {
	return f.replans.Load()
}
