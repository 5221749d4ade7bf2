// Query planning for the federated read path. A plan is everything
// about a query that does not depend on the current sameAs link set:
// the parsed AST, a selectivity-based join order for every group
// pattern (from rankPatterns, the one ranker, priced by static
// CountMatch estimates), and the set of sources the query may touch
// (the probe set).
// Plans are immutable after construction, which makes them safe to
// share across concurrent queries and across WithLinks snapshots, and
// therefore cacheable (see plancache.go).
package federation

import (
	"sort"

	"alex/internal/rdf"
	"alex/internal/sparql"
)

// Options tunes the federated evaluator. The zero value is one worker
// per CPU executing each plan's static join order.
type Options struct {
	// Workers is the number of goroutines sharding intermediate rows in
	// each evaluation stage. 0 means GOMAXPROCS; 1 is serial.
	Workers int
	// ReplanEvery enables adaptive execution (see adaptive.go): after
	// every ReplanEvery executed pattern stages, the remaining patterns
	// of the group are re-ranked using observed cardinalities instead of
	// static estimates. 0 disables re-planning: the plan-time order is
	// executed as compiled.
	ReplanEvery int
}

// SetOptions replaces the evaluator options. Not safe concurrently
// with queries; set options before publishing a snapshot.
func (f *Federator) SetOptions(o Options) { f.opts = o }

// Opts returns the evaluator options in effect.
func (f *Federator) Opts() Options { return f.opts }

// plan is a compiled query: the AST plus per-group join orders and the
// probe set. The AST itself is never mutated — join order lives in a
// side table keyed by group identity — so planning works on
// caller-owned queries and a cached plan can serve concurrent readers.
// The one mutable field is obs, the learned cardinality table fed by
// adaptive executions; it is internally synchronized and only ever
// steers ordering, never answers, so sharing a cached plan remains
// safe (see runtimestats.go).
type plan struct {
	q *sparql.Query
	// order maps each group pattern of q to the plan-time evaluation
	// order of its Triples, as indices into grp.Triples.
	order map[*sparql.GroupGraphPattern][]int
	// stageOf assigns every triple pattern a plan-global stage id
	// (stageOf[grp][i] is the id of grp.Triples[i]), indexing the
	// RuntimeStats and obsTable counters. Ids follow the deterministic
	// planning walk, so a cached plan's ids are stable across queries.
	stageOf map[*sparql.GroupGraphPattern][]int
	// baseBound is the set of variables guaranteed bound when a group
	// starts evaluating (the planning-time bound set), the starting
	// point for binding-safety checks during adaptive re-ranking.
	baseBound map[*sparql.GroupGraphPattern]map[string]bool
	// nstages is the total number of triple-pattern stages in the plan.
	nstages int
	// obs accumulates observed per-stage cardinalities across adaptive
	// executions of this plan; nil until first planned. Cached plans
	// keep it, which is what makes hot queries converge to the best
	// order across requests.
	obs *obsTable
	// probe lists the indexes of guarded sources this query may touch;
	// they are probed in parallel before evaluation starts, which makes
	// Degraded reporting independent of join order and worker count.
	probe []int
}

// planQuery compiles q against the federator's source statistics.
func (f *Federator) planQuery(q *sparql.Query) *plan {
	p := &plan{
		q:         q,
		order:     make(map[*sparql.GroupGraphPattern][]int),
		stageOf:   make(map[*sparql.GroupGraphPattern][]int),
		baseBound: make(map[*sparql.GroupGraphPattern]map[string]bool),
	}
	probe := make(map[int]bool)
	if q.Where != nil {
		f.planGroup(q.Where, map[string]bool{}, p, probe)
	}
	p.obs = newObsTable(p.nstages)
	for si := range probe {
		p.probe = append(p.probe, si)
	}
	sort.Ints(p.probe)
	return p
}

// planGroup orders one group's triples and recurses into its nested
// groups. bound is the set of variables guaranteed bound when the
// group starts evaluating; it is extended with the group's own triple
// variables before recursing, because nested groups see those
// bindings. Union alternatives do not extend bound for each other.
func (f *Federator) planGroup(grp *sparql.GroupGraphPattern, bound map[string]bool, p *plan, probe map[int]bool) {
	p.baseBound[grp] = copyBound(bound)
	ids := make([]int, len(grp.Triples))
	for i := range ids {
		ids[i] = p.nstages + i
	}
	p.nstages += len(grp.Triples)
	p.stageOf[grp] = ids
	for _, tp := range grp.Triples {
		f.probeSet(tp, probe)
	}
	p.order[grp] = f.rankPatterns(grp.Triples, bound, nil, func(i int, b map[string]bool) float64 {
		return float64(f.estimatePattern(grp.Triples[i], b))
	})

	inner := copyBound(bound)
	for _, tp := range grp.Triples {
		for _, v := range tp.Vars() {
			inner[v] = true
		}
	}
	for _, alts := range grp.Unions {
		for _, alt := range alts {
			f.planGroup(alt, copyBound(inner), p, probe)
		}
		// After a UNION construct, only variables bound in every
		// alternative are guaranteed bound. Tracking the intersection
		// buys little for ordering, so conservatively keep inner as-is.
	}
	for _, opt := range grp.Optionals {
		f.planGroup(opt, copyBound(inner), p, probe)
	}
}

func copyBound(b map[string]bool) map[string]bool {
	out := make(map[string]bool, len(b))
	for k := range b {
		out[k] = true
	}
	return out
}

// rankPatterns is the one join-order ranker: it returns a greedy
// lowest-cost-first order over the patterns of tps not yet marked in
// scheduled (nil: none are), constrained so that every variable is
// first bound by the same pattern as in written order. The constraint
// matters for answer identity, not just determinism: a variable's
// bound value can differ depending on which pattern binds it first (a
// direct match binds the source's own IRI, a sameAs-resolved match
// binds the queried alias), so reordering may only move a pattern
// ahead of another when doing so cannot steal a variable's first
// binding. Formally: pattern i is schedulable iff each of its
// not-yet-bound variables appears in no unscheduled pattern j < i. The
// earliest unscheduled pattern is always schedulable, so the greedy
// loop cannot deadlock, and any order it produces is answer-identical
// to any other. Ties break toward written order, so the result is a
// pure function of the patterns and of cost.
//
// cost prices running pattern i next, given the variables bound by
// then: the static CountMatch estimate at plan time (estimatePattern),
// observed and learned expansions during adaptive execution
// (adaptiveCost). The returned order stays valid as its prefix
// executes: each entry was chosen schedulable given the ones before it.
// bound and scheduled are not modified.
func (f *Federator) rankPatterns(tps []sparql.TriplePattern, bound map[string]bool, scheduled []bool, cost func(i int, bound map[string]bool) float64) []int {
	bound = copyBound(bound)
	sched := make([]bool, len(tps))
	copy(sched, scheduled)
	order := make([]int, 0, len(tps))
	for {
		best, bestCost := -1, 0.0
		for i := range tps {
			if sched[i] || !f.schedulable(tps, sched, i, bound) {
				continue
			}
			if c := cost(i, bound); best == -1 || c < bestCost {
				best, bestCost = i, c
			}
		}
		if best == -1 {
			return order
		}
		order = append(order, best)
		sched[best] = true
		for _, v := range tps[best].Vars() {
			bound[v] = true
		}
	}
}

// schedulable reports whether pattern i may run next without stealing
// a variable's first binding from an earlier-written pattern.
func (f *Federator) schedulable(tps []sparql.TriplePattern, scheduled []bool, i int, bound map[string]bool) bool {
	for _, v := range tps[i].Vars() {
		if bound[v] {
			continue
		}
		for j := 0; j < i; j++ {
			if scheduled[j] {
				continue
			}
			for _, w := range tps[j].Vars() {
				if w == v {
					return false
				}
			}
		}
	}
	return true
}

// estimatePattern estimates the pattern's result cardinality: the sum
// over its candidate sources of the index-counted matches with the
// pattern's constants bound, shrunk by a factor of 8 for every
// position held by an already-bound variable (its runtime value is
// unknown at planning time, but a bound position joins rather than
// scans). Estimates only steer ordering, so being cheap matters more
// than being exact — CountMatch is O(1)-ish per source.
func (f *Federator) estimatePattern(tp sparql.TriplePattern, bound map[string]bool) int {
	var s, p, o rdf.ID
	var haveS, haveP, haveO bool
	known := true
	resolve := func(n sparql.Node) (rdf.ID, bool) {
		if n.IsVar {
			return 0, false
		}
		id, ok := f.dict.Lookup(n.Term)
		if !ok {
			known = false // constant absent from every source
		}
		return id, ok
	}
	s, haveS = resolve(tp.S)
	p, haveP = resolve(tp.P)
	o, haveO = resolve(tp.O)
	if !known {
		return 0
	}

	srcs := f.candidateSources(tp)
	total := 0
	for _, si := range srcs {
		total += f.sources[si].Graph.CountMatch(s, p, o, haveS, haveP, haveO)
	}
	for _, n := range []sparql.Node{tp.S, tp.P, tp.O} {
		if n.IsVar && bound[n.Var] {
			total /= 8
		}
	}
	return total
}

// candidateSources returns the source indexes a pattern may touch,
// judged statically: a constant predicate restricts to the sources
// holding it (the FedX-style source-selection index); a variable
// predicate may touch every source, even if a runtime binding later
// narrows it.
func (f *Federator) candidateSources(tp sparql.TriplePattern) []int {
	if !tp.P.IsVar {
		id, ok := f.dict.Lookup(tp.P.Term)
		if !ok {
			return nil
		}
		return f.predSources[id]
	}
	all := make([]int, len(f.sources))
	for i := range all {
		all[i] = i
	}
	return all
}

// probeSet folds the pattern's candidate guarded sources into probe.
func (f *Federator) probeSet(tp sparql.TriplePattern, probe map[int]bool) {
	for _, si := range f.candidateSources(tp) {
		if f.guards[si] != nil {
			probe[si] = true
		}
	}
}
