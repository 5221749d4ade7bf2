// Query planning for the federated read path. A plan is everything
// about a query that does not depend on the current sameAs link set:
// the parsed AST, the row layout (one slot per WHERE-tree variable),
// the triple patterns compiled to slots and constant dictionary IDs,
// and the cardinalities its executions have observed. A plan holds no
// join order: the stage loop asks the one ranker (nextPattern) for the
// next pattern at every stage boundary, and the ranker prices a pattern
// by what the plan has learned, or by a static CountMatch estimate while
// it has learned nothing (adaptive.go). Apart from that learned table a
// plan is immutable after construction, which makes it safe to share
// across concurrent queries and across WithLinks snapshots, and
// therefore cacheable (see plancache.go).
package federation

import (
	"slices"

	"alex/internal/rdf"
	"alex/internal/sparql"
)

// plan is a compiled query: the AST, a slot for every variable of the
// WHERE tree, and the tree compiled against those slots.
// The AST itself is never mutated, so planning works on caller-owned
// queries and a cached plan can serve concurrent readers. The one
// mutable field is obs, the learned cardinality table every execution
// folds into; it is internally synchronized and only ever steers
// ordering, never answers, so sharing a cached plan remains safe (see
// runtimestats.go).
type plan struct {
	q *sparql.Query
	// vars names the slots of an intermediate row: slot i holds the
	// dictionary ID bound to vars[i]. The order is sparql.WhereVars',
	// which is also SELECT *'s projection order.
	vars []string
	// root is the compiled WHERE group; nil when the query has none.
	root *cgroup
	// pats holds every triple pattern of the tree, compiled, indexed by
	// its plan-global stage id — the id that also indexes the
	// RuntimeStats and obsTable counters. A group's patterns are
	// contiguous and ids follow the deterministic planning walk, so a
	// cached plan's ids are stable across queries.
	pats []cpattern
	// unresolved reports that some pattern constant was not in the
	// dictionary when the plan was compiled (its cnode.id is rdf.NoID).
	// Such a plan looks its constants up again on every evaluation, so a
	// cached plan never pins a miss the dictionary has since filled.
	unresolved bool
	// obs accumulates observed per-stage cardinalities across the
	// executions of this plan. Cached plans keep it, which is what makes
	// hot queries converge to the best order across requests. nil when
	// no group of the plan holds two patterns: there is no order to
	// choose, so such a plan observes nothing.
	obs *obsTable
}

// cnode is one position of a compiled triple pattern: a variable's row
// slot, or a constant's dictionary ID.
type cnode struct {
	slot int32  // >= 0: a variable; -1: a constant
	id   rdf.ID // the constant; rdf.NoID while the dictionary lacks it
}

// cpattern is a triple pattern compiled against the plan's slots.
type cpattern struct {
	s, p, o cnode
}

func (c *cpattern) nodes() [3]cnode { return [3]cnode{c.s, c.p, c.o} }

// uses reports whether the pattern mentions the variable in slot.
func (c *cpattern) uses(slot int32) bool {
	return c.s.slot == slot || c.p.slot == slot || c.o.slot == slot
}

// readsBound reports whether row binds one of the pattern's variables.
func (c *cpattern) readsBound(row []rdf.ID) bool {
	for _, n := range c.nodes() {
		if n.slot >= 0 && row[n.slot] != rdf.NoID {
			return true
		}
	}
	return false
}

// bind marks the pattern's variables in bound.
func (c *cpattern) bind(bound []bool) {
	for _, n := range c.nodes() {
		if n.slot >= 0 {
			bound[n.slot] = true
		}
	}
}

// cfilter is a FILTER with the slots of the variables it reads, so a
// row can be shown to the expression as a binding of just those.
type cfilter struct {
	expr  sparql.Expr
	vars  []string
	slots []int32
}

// cgroup is a compiled group pattern. Its triple patterns are
// plan.pats[first : first+len(src.Triples)].
type cgroup struct {
	src   *sparql.GroupGraphPattern
	first int
	// bound marks, by slot, the variables guaranteed bound when the
	// group starts evaluating: the starting point of the ranker's
	// binding-safety checks.
	bound     []bool
	filters   []cfilter
	optionals []*cgroup
	unions    [][]*cgroup
}

// ranks reports whether the group, or one nested in it, holds at least
// two triple patterns, that is, whether its evaluation has an order to
// choose.
func (g *cgroup) ranks() bool {
	if len(g.src.Triples) > 1 || slices.ContainsFunc(g.optionals, (*cgroup).ranks) {
		return true
	}
	for _, alts := range g.unions {
		if slices.ContainsFunc(alts, (*cgroup).ranks) {
			return true
		}
	}
	return false
}

// planQuery compiles q against the federator's dictionary and
// source-selection index.
func (f *Federator) planQuery(q *sparql.Query) *plan {
	p := &plan{q: q}
	if q.Where != nil {
		p.vars = sparql.WhereVars(q.Where)
		p.root = f.planGroup(q.Where, make([]bool, len(p.vars)), p)
	}
	if p.root != nil && p.root.ranks() {
		p.obs = newObsTable(len(p.pats))
	}
	return p
}

// slot returns the row slot of a WHERE-tree variable, or -1 for a name
// no triple pattern mentions (a FILTER may: it then reads as unbound).
func (p *plan) slot(name string) int32 { return int32(slices.Index(p.vars, name)) }

// compileNode resolves one pattern position: variables to slots,
// constants to dictionary IDs.
func (f *Federator) compileNode(p *plan, n sparql.Node) cnode {
	if n.IsVar {
		return cnode{slot: p.slot(n.Var)}
	}
	id, ok := f.dict.Lookup(n.Term)
	if !ok {
		p.unresolved = true
	}
	return cnode{slot: -1, id: id}
}

// planGroup compiles one group's triples and recurses into its nested
// groups. bound marks the variables guaranteed bound when
// the group starts evaluating; it is extended with the group's own
// triple variables before recursing, because nested groups see those
// bindings. Union alternatives do not extend bound for each other.
func (f *Federator) planGroup(grp *sparql.GroupGraphPattern, bound []bool, p *plan) *cgroup {
	g := &cgroup{src: grp, first: len(p.pats), bound: bound}
	for _, tp := range grp.Triples {
		p.pats = append(p.pats, cpattern{
			s: f.compileNode(p, tp.S),
			p: f.compileNode(p, tp.P),
			o: f.compileNode(p, tp.O),
		})
	}
	for _, flt := range grp.Filters {
		cf := cfilter{expr: flt}
		for _, v := range flt.ExprVars() {
			if s := p.slot(v); s >= 0 && !slices.Contains(cf.slots, s) {
				cf.vars = append(cf.vars, v)
				cf.slots = append(cf.slots, s)
			}
		}
		g.filters = append(g.filters, cf)
	}

	inner := slices.Clone(bound)
	pats := p.pats[g.first:]
	for i := range pats {
		pats[i].bind(inner)
	}
	for _, alts := range grp.Unions {
		calts := make([]*cgroup, len(alts))
		for i, alt := range alts {
			calts[i] = f.planGroup(alt, slices.Clone(inner), p)
		}
		g.unions = append(g.unions, calts)
		// After a UNION construct, only variables bound in every
		// alternative are guaranteed bound. Tracking the intersection
		// buys little for ordering, so conservatively keep inner as-is.
	}
	for _, opt := range grp.Optionals {
		g.optionals = append(g.optionals, f.planGroup(opt, slices.Clone(inner), p))
	}
	return g
}

// resolveConstants returns p.pats with every constant looked up afresh:
// the per-evaluation pattern table of a plan compiled while the
// dictionary lacked one of its constants. A term still absent keeps
// rdf.NoID and matches nothing.
func (f *Federator) resolveConstants(p *plan) []cpattern {
	pats := slices.Clone(p.pats)
	fill := func(c *cnode, n sparql.Node) {
		if c.slot < 0 && c.id == rdf.NoID {
			c.id, _ = f.dict.Lookup(n.Term)
		}
	}
	var walk func(g *cgroup)
	walk = func(g *cgroup) {
		for i, tp := range g.src.Triples {
			c := &pats[g.first+i]
			fill(&c.s, tp.S)
			fill(&c.p, tp.P)
			fill(&c.o, tp.O)
		}
		for _, alts := range g.unions {
			for _, alt := range alts {
				walk(alt)
			}
		}
		for _, opt := range g.optionals {
			walk(opt)
		}
	}
	walk(p.root)
	return pats
}

// nextPattern is the one join-order ranker: of the group's patterns not
// yet marked in scheduled it returns the cheapest that may run next, -1
// when none is left. The stage loop calls it at every stage boundary
// with the live row count, so the order a group executes in is greedy
// lowest-cost-first, constrained so that every variable is first bound
// by the same pattern as in written order. The constraint matters for
// answer identity, not just determinism: a variable's bound value can
// differ depending on which pattern binds it first (a direct match
// binds the source's own IRI, a sameAs-resolved match binds the queried
// alias), so a pattern may only move ahead of another when doing so
// cannot steal a variable's first binding. Formally: pattern i is
// schedulable iff each of its not-yet-bound variables appears in no
// unscheduled pattern j < i. The earliest unscheduled pattern is always
// schedulable, so the loop cannot deadlock, and any order it produces
// is answer-identical to any other. Ties break toward written order, so
// the choice is a pure function of the patterns and of adaptiveCost,
// which prices running pattern i next given the variables (by slot)
// bound by then.
func (f *Federator) nextPattern(ec *evalCtx, g *cgroup, bound, scheduled []bool, nrows int) int {
	pats := ec.pats[g.first : g.first+len(scheduled)]
	best, bestCost := -1, 0.0
	for i := range pats {
		if scheduled[i] || !schedulable(pats, scheduled, i, bound) {
			continue
		}
		if c := f.adaptiveCost(ec, g, i, nrows, bound); best == -1 || c < bestCost {
			best, bestCost = i, c
		}
	}
	return best
}

// schedulable reports whether pattern i may run next without stealing
// a variable's first binding from an earlier-written pattern.
func schedulable(pats []cpattern, scheduled []bool, i int, bound []bool) bool {
	for _, n := range pats[i].nodes() {
		if n.slot < 0 || bound[n.slot] {
			continue
		}
		for j := 0; j < i; j++ {
			if !scheduled[j] && pats[j].uses(n.slot) {
				return false
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
func (f *Federator) estimatePattern(pat *cpattern, bound []bool) int {
	for _, n := range pat.nodes() {
		if n.slot < 0 && n.id == rdf.NoID {
			return 0 // constant absent from every source
		}
	}
	total := 0
	for _, si := range f.candidateSources(pat) {
		total += f.sources[si].Graph.CountMatch(pat.s.id, pat.p.id, pat.o.id, pat.s.slot < 0, pat.p.slot < 0, pat.o.slot < 0)
	}
	for _, n := range pat.nodes() {
		if n.slot >= 0 && bound[n.slot] {
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
func (f *Federator) candidateSources(pat *cpattern) []int {
	if pat.p.slot < 0 {
		return f.predSources[pat.p.id] // rdf.NoID is no predicate's ID
	}
	all := make([]int, len(f.sources))
	for i := range all {
		all[i] = i
	}
	return all
}
