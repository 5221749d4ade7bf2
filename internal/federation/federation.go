// Package federation implements a federated SPARQL query processor over
// multiple RDF sources connected by owl:sameAs links, in the role FedX
// plays in the paper (§3.2, Figure 1). A query's basic graph pattern is
// matched across all sources; when a variable bound to an entity of one
// source must join with a pattern in another source, the join crosses a
// sameAs link, and the answer row records every link it used. Approving
// or rejecting an answer therefore becomes approving or rejecting those
// links — the feedback signal ALEX consumes.
//
// This is the repository's one query executor. Queries are compiled
// into link-independent plans whose join orders come from one ranker
// (rankPatterns, plan.go) and which an LRU cache shares across
// WithLinks snapshots (plancache.go); one stage loop (evalTriples)
// walks a group's patterns — in plan-time order, or re-ranked from
// observed cardinalities under Options.ReplanEvery (adaptive.go) —
// fanning intermediate rows out across workers with an order-preserving
// merge (parallel.go); per-row provenance is a persistent links.Frozen
// chain materialized only at emit time. A single-graph query is a
// federation of one source with no links (single.go). Answers, and the
// join orders executed without re-planning, are pinned by the golden
// files under testdata/golden.
package federation

import (
	"context"
	"fmt"
	"sort"

	"alex/internal/links"
	"alex/internal/rdf"
	"alex/internal/sparql"
	"alex/internal/store"
)

// Source is a named dataset participating in the federation. Access, if
// non-nil, is consulted before the source's data is used by a query
// (see AccessFunc): it makes the source fallible, which activates the
// per-source deadline, retry and circuit-breaker machinery.
type Source struct {
	Name   string
	Graph  store.TripleStore
	Access AccessFunc
}

// Row is one federated answer: variable bindings plus the sameAs links
// used to produce it.
type Row struct {
	Binding sparql.Binding
	Used    links.Set
}

// irow is an intermediate row during evaluation: bindings plus the
// sameAs links its derivation has crossed so far, as a persistent
// chain that extending never copies.
type irow struct {
	b    sparql.Binding
	used *links.Frozen
}

// ResultSet holds federated query solutions. For ASK queries Rows is
// empty and Ask carries the answer. Degraded lists the sources that
// were skipped during evaluation (open circuit, access failure or
// timeout): when non-empty the results are partial, not wrong — rows
// that the degraded sources would have contributed are simply missing.
type ResultSet struct {
	Vars     []string
	Rows     []Row
	Ask      bool
	Degraded []string
}

// FeedbackSink receives link-level feedback derived from answer-level
// feedback. core.System satisfies this interface.
type FeedbackSink interface {
	Feedback(l links.Link, positive bool)
}

// Federator evaluates queries across sources joined by sameAs links.
type Federator struct {
	dict    *rdf.Dict
	sources []Source
	// same maps an entity to its sameAs edges. Each edge keeps the
	// canonical Link (E1 from the first dataset) for provenance.
	same map[rdf.ID][]edge
	// linkCount is the number of distinct installed links, maintained
	// on SetLinks/WithLinks so LinkCount is O(1) on the /links path.
	linkCount int
	// predSources is the source-selection index (the role FedX's SPARQL
	// ASK probes play): for each predicate ID, which sources hold at
	// least one triple with it. Patterns with a bound predicate are
	// only evaluated against relevant sources.
	predSources map[rdf.ID][]int
	// res and guards implement the fault-tolerant read path (see
	// resilience.go). guards[i] is nil for sources without an Access
	// hook; non-nil guards are shared with WithLinks snapshots so
	// breaker state survives snapshot publication.
	res    Resilience
	guards []*guard
	// opts tunes the evaluator (workers, re-planning); see plan.go.
	opts Options
	// plans, when non-nil, caches compiled plans by query text; shared
	// with WithLinks snapshots because plans are link-independent.
	plans *PlanCache
	// ametrics counts adaptive-execution events (see runtimestats.go);
	// shared with WithLinks snapshots like guards, so the counters are
	// monotone across snapshot publications.
	ametrics *adaptiveMetrics
	// traceExec, when non-nil, observes the executed stage order of
	// every group (indices into grp.Triples, in execution order). Test
	// hook for the golden and re-planning determinism suites; never set
	// in production.
	traceExec func(grp *sparql.GroupGraphPattern, order []int)
}

// SetExecTrace installs fn as the executed-stage-order observer: after
// every group evaluation fn receives the pattern indices in the order
// they actually ran. The golden harness uses it to assert that the
// frozen join orders are the ones executed, on both store backends.
// Install before issuing queries; never use in production.
func (f *Federator) SetExecTrace(fn func(grp *sparql.GroupGraphPattern, order []int)) {
	f.traceExec = fn
}

type edge struct {
	other rdf.ID
	link  links.Link
}

// New returns a federator over the given shared dictionary.
func New(dict *rdf.Dict) *Federator {
	return &Federator{
		dict:        dict,
		same:        make(map[rdf.ID][]edge),
		predSources: make(map[rdf.ID][]int),
		res:         DefaultResilience(),
		ametrics:    &adaptiveMetrics{},
	}
}

// SetResilience replaces the fault-tolerance policy. Breakers of
// already registered sources are rebuilt with the new configuration
// (and therefore reset to closed). Not safe concurrently with queries.
func (f *Federator) SetResilience(r Resilience) {
	f.res = r.withDefaults()
	for i, src := range f.sources {
		if src.Access != nil {
			f.guards[i] = newGuard(f.res.Breaker, int64(i)+1)
		}
	}
}

// AddSource registers a local dataset (either store backend); see Add.
func (f *Federator) AddSource(name string, g store.TripleStore) error {
	return f.Add(Source{Name: name, Graph: g})
}

// Add registers a source. All sources must share the federator's
// dictionary so that term IDs are comparable. The source's predicates
// are indexed for source selection; triples inserted into the graph
// after registration with previously unseen predicates are not visible
// to the index (re-register to refresh). A source with an Access hook
// gets a circuit breaker under the current resilience policy.
func (f *Federator) Add(src Source) error {
	if src.Graph.Dict() != f.dict {
		return fmt.Errorf("federation: source %q does not share the federator dictionary", src.Name)
	}
	idx := len(f.sources)
	f.sources = append(f.sources, src)
	var g *guard
	if src.Access != nil {
		g = newGuard(f.res.Breaker, int64(idx)+1)
	}
	f.guards = append(f.guards, g)
	for _, p := range src.Graph.PredicateIDs() {
		f.predSources[p] = append(f.predSources[p], idx)
	}
	return nil
}

// Sources returns the registered sources.
func (f *Federator) Sources() []Source { return f.sources }

// SetLinks replaces the sameAs link set. Call it again whenever ALEX's
// candidate set changes. The replacement resolution map is built fully
// before it is installed, so a Query that started before SetLinks
// returns sees either the old map or the new one, never a half-filled
// one. SetLinks itself is still a write: callers that share one
// Federator across goroutines must not call it concurrently with Query —
// use WithLinks to publish an immutable snapshot instead.
func (f *Federator) SetLinks(ls links.Set) {
	f.same = buildSameAs(ls)
	f.linkCount = ls.Len()
}

// WithLinks returns a new Federator over the same dictionary and sources
// with the given sameAs link set installed. The sources, the
// source-selection index and the plan cache are shared (sources and
// index are immutable after registration; plans are link-independent);
// only the resolution map is fresh. The returned Federator is a
// snapshot: treat it as immutable after publication — never call
// SetLinks or AddSource on it — and concurrent Query calls are then
// safe without locking. This is the read path of the alexd
// single-writer architecture.
func (f *Federator) WithLinks(ls links.Set) *Federator {
	return &Federator{
		dict:        f.dict,
		sources:     f.sources,
		same:        buildSameAs(ls),
		linkCount:   ls.Len(),
		predSources: f.predSources,
		res:         f.res,
		guards:      f.guards,
		opts:        f.opts,
		plans:       f.plans,
		ametrics:    f.ametrics,
		traceExec:   f.traceExec,
	}
}

func buildSameAs(ls links.Set) map[rdf.ID][]edge {
	same := make(map[rdf.ID][]edge, 2*ls.Len())
	for _, l := range ls.Slice() {
		same[l.E1] = append(same[l.E1], edge{other: l.E2, link: l})
		same[l.E2] = append(same[l.E2], edge{other: l.E1, link: l})
	}
	return same
}

// LinkCount returns the number of distinct sameAs links installed.
// O(1): the count is maintained by SetLinks/WithLinks, since this
// accessor sits on the hot /links handler path.
func (f *Federator) LinkCount() int { return f.linkCount }

// Query parses and evaluates a federated SELECT query.
func (f *Federator) Query(query string) (*ResultSet, error) {
	return f.QueryContext(context.Background(), query)
}

// QueryContext parses and evaluates a federated query; ctx bounds the
// per-source access probes (and their retries). When a plan cache is
// installed (SetPlanCache), the parse and join-ordering work is served
// from the cache for repeated query texts.
func (f *Federator) QueryContext(ctx context.Context, query string) (*ResultSet, error) {
	p, err := f.planFor(query)
	if err != nil {
		return nil, err
	}
	return f.evalPlan(ctx, p)
}

// planFor returns a compiled plan for the query text, consulting the
// plan cache when one is installed. Parse failures are returned, not
// cached: malformed queries are cheap to re-reject and must not evict
// useful plans.
func (f *Federator) planFor(query string) (*plan, error) {
	if f.plans != nil {
		if p := f.plans.get(query); p != nil {
			return p, nil
		}
	}
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, err
	}
	p := f.planQuery(q)
	if f.plans != nil {
		f.plans.put(query, p)
	}
	return p, nil
}

// Eval evaluates a parsed query across the federation.
func (f *Federator) Eval(q *sparql.Query) (*ResultSet, error) {
	return f.EvalContext(context.Background(), q)
}

// EvalContext evaluates a parsed query across the federation. Sources
// whose access fails under the resilience policy are skipped and
// reported in ResultSet.Degraded; the evaluation itself never fails
// because of an unavailable source. The query is planned on every
// call — the plan cache only applies to QueryContext, which has the
// query text to key it by.
func (f *Federator) EvalContext(ctx context.Context, q *sparql.Query) (*ResultSet, error) {
	return f.evalPlan(ctx, f.planQuery(q))
}

// evalPlan runs a compiled plan: probe the plan's sources (in
// parallel, so Degraded is decided before evaluation and independent
// of join order), evaluate the pattern tree with the configured worker
// count, then finalize through the sparql engine and re-associate
// per-row provenance. Under adaptive execution a RuntimeStats table
// rides along: probes and stages record into it, ranking consults it,
// and it is folded into the plan's learned table at the end so the
// next query over a cached plan starts from real cardinalities.
func (f *Federator) evalPlan(ctx context.Context, p *plan) (*ResultSet, error) {
	if len(f.sources) == 0 {
		return nil, fmt.Errorf("federation: no sources registered")
	}
	var stats *RuntimeStats
	if f.opts.ReplanEvery > 0 && p.nstages > 0 {
		stats = newRuntimeStats(p.nstages, len(f.sources))
	}
	ec := f.newEvalCtx(ctx, p.probe, stats)
	if stats != nil && p.obs != nil {
		if p.obs.validate(f.linkCount) {
			ec.learned = p.obs
			if f.ametrics != nil {
				f.ametrics.learnedHits.Add(1)
			}
		}
	}
	rows := f.evalGroup(ec, p, p.q.Where, []irow{{b: sparql.Binding{}}}, f.opts.workerCount())
	if stats != nil {
		stats.foldInto(p.obs)
	}

	// Project/sort/limit via the sparql engine, keeping provenance
	// aligned by evaluating on indices.
	bindings := make([]sparql.Binding, len(rows))
	for i, r := range rows {
		bindings[i] = r.b
	}
	res, err := sparql.Finalize(p.q, bindings)
	if err != nil {
		return nil, err
	}
	if p.q.Form == sparql.FormAsk {
		return &ResultSet{Ask: res.Ask, Degraded: ec.degradedNames(f)}, nil
	}
	out := &ResultSet{Vars: res.Vars, Degraded: ec.degradedNames(f)}
	if len(p.q.Aggregates) > 0 {
		// An aggregate row depends on every solution that fed its
		// group; attributing provenance per group would need the
		// grouping keys of each input row, so attach the union — any
		// feedback on an aggregate answer concerns all links that
		// contributed to it.
		all := links.NewSet()
		for _, r := range rows {
			for l := range r.used.Set() {
				all.Add(l)
			}
		}
		for _, b := range res.Rows {
			out.Rows = append(out.Rows, Row{Binding: b, Used: all.Clone()})
		}
		return out, nil
	}
	// Re-associate provenance: Finalize may reorder, deduplicate and
	// slice; match rows by identity of the projected bindings.
	used := make(map[string]links.Set)
	for i, b := range bindings {
		k := f.projectionKey(res.Vars, b)
		if prev, ok := used[k]; ok {
			// merge provenance of duplicate solutions
			for l := range rows[i].used.Set() {
				prev.Add(l)
			}
		} else {
			used[k] = rows[i].used.Set()
		}
	}
	for _, b := range res.Rows {
		k := f.projectionKey(res.Vars, b)
		u := used[k]
		if u == nil {
			u = links.NewSet()
		}
		out.Rows = append(out.Rows, Row{Binding: b, Used: u})
	}
	return out, nil
}

// projectionKey encodes the projected bindings of a row as a map key.
// Terms are encoded by dictionary ID, with distinct tags for an
// unbound variable (0x00), a known term (0x01 + little-endian ID) and
// the defensive fallback of a term missing from the dictionary (0x02 +
// length-prefixed rendering), so an unbound variable can never collide
// with any bound value — including literals containing NUL bytes,
// which the old Term.String()+"\x00" concatenation could not separate.
func (f *Federator) projectionKey(vars []string, b sparql.Binding) string {
	buf := make([]byte, 0, 5*len(vars))
	for _, v := range vars {
		t, ok := b[v]
		if !ok {
			buf = append(buf, 0x00)
			continue
		}
		if id, ok := f.dict.Lookup(t); ok {
			buf = append(buf, 0x01, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
			continue
		}
		s := t.String()
		n := len(s)
		buf = append(buf, 0x02, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
		buf = append(buf, s...)
	}
	return string(buf)
}

// evalGroup evaluates one group pattern over the input rows: triple
// patterns, then union constructs, optionals and filters — each stage
// fanned out across workers with an order-preserving merge, so the
// output row order equals a serial evaluation's. Nested groups reached
// through OPTIONAL run serially (workers=1): the per-row fan-out
// already saturates the workers, and nesting parallelism would only
// multiply goroutines.
func (f *Federator) evalGroup(ec *evalCtx, p *plan, grp *sparql.GroupGraphPattern, input []irow, workers int) []irow {
	rows := f.evalTriples(ec, p, grp, input, workers)

	for _, alts := range grp.Unions {
		var merged []irow
		for _, alt := range alts {
			merged = append(merged, f.evalGroup(ec, p, alt, rows, workers)...)
		}
		rows = merged
	}

	for _, opt := range grp.Optionals {
		opt := opt
		rows = mapRows(workers, rows, func(r irow, emit func(irow)) {
			sub := f.evalGroup(ec, p, opt, []irow{r}, 1)
			if len(sub) == 0 {
				emit(r)
				return
			}
			for _, nr := range sub {
				emit(nr)
			}
		})
	}

	for _, flt := range grp.Filters {
		flt := flt
		rows = mapRows(workers, rows, func(r irow, emit func(irow)) {
			v, err := flt.Eval(r.b)
			if err != nil {
				return // SPARQL expression error: filter is false
			}
			if ok, err := sparql.EffectiveBool(v); err == nil && ok {
				emit(r)
			}
		})
	}
	return rows
}

// evalTriples is the one stage loop: it runs a group's triple patterns
// over rows, one mapRows stage per pattern, until the patterns or the
// rows run out. Without re-planning it walks the plan-time order and
// allocates nothing of its own — OPTIONAL groups re-enter it once per
// input row. Under adaptive execution (ec.stats non-nil) it records
// every stage's row counts and, every Options.ReplanEvery stages,
// re-ranks the patterns still to run against the live row count.
func (f *Federator) evalTriples(ec *evalCtx, p *plan, grp *sparql.GroupGraphPattern, rows []irow, workers int) []irow {
	tps := grp.Triples
	order := p.order[grp]
	adaptive := ec.stats != nil
	var bound map[string]bool
	var scheduled []bool
	if adaptive {
		bound = copyBound(p.baseBound[grp])
		scheduled = make([]bool, len(tps))
	}
	var executed []int
	pos := 0
	for done := 0; done < len(tps); done++ {
		if adaptive && done%f.opts.ReplanEvery == 0 {
			nrows := len(rows)
			order = f.rankPatterns(tps, bound, scheduled, func(i int, b map[string]bool) float64 {
				return f.adaptiveCost(ec, p, grp, i, nrows, b)
			})
			pos = 0
			if done > 0 && f.ametrics != nil {
				f.ametrics.replans.Add(1)
			}
		}
		ti := order[pos]
		pos++
		tp := tps[ti]
		in := len(rows)
		rows = mapRows(workers, rows, func(r irow, emit func(irow)) {
			f.matchPattern(ec, tp, r, emit)
		})
		if adaptive {
			ec.stats.record(p.stageOf[grp][ti], in, len(rows))
			scheduled[ti] = true
			for _, v := range tp.Vars() {
				bound[v] = true
			}
		}
		if f.traceExec != nil {
			executed = append(executed, ti)
		}
		if len(rows) == 0 {
			break
		}
	}
	if f.traceExec != nil {
		f.traceExec(grp, executed)
	}
	return rows
}

// matchPattern matches tp against the relevant sources, extending row.
// When a bound entity does not occur in a source, its sameAs
// equivalents are tried, and any equivalence used is recorded in the
// row's provenance. Source selection: a pattern whose predicate is a
// constant (or a variable already bound) only visits sources holding
// that predicate. Sources that failed their upfront availability probe
// are skipped (the evaluation degrades instead of failing).
func (f *Federator) matchPattern(ec *evalCtx, tp sparql.TriplePattern, row irow, emit func(irow)) {
	if srcs, ok := f.selectSources(tp.P, row.b); ok {
		for _, si := range srcs {
			if !ec.available(si) {
				continue
			}
			f.matchInSource(f.sources[si].Graph, tp, row, emit)
		}
		return
	}
	for si, src := range f.sources {
		if !ec.available(si) {
			continue
		}
		f.matchInSource(src.Graph, tp, row, emit)
	}
}

// selectSources returns the candidate source indexes for a predicate
// node; ok is false when the predicate is unbound (all sources apply).
func (f *Federator) selectSources(p sparql.Node, b sparql.Binding) ([]int, bool) {
	var t rdf.Term
	if p.IsVar {
		bound, isBound := b[p.Var]
		if !isBound {
			return nil, false
		}
		t = bound
	} else {
		t = p.Term
	}
	id, ok := f.dict.Lookup(t)
	if !ok {
		return nil, true // unknown predicate: no source can match
	}
	return f.predSources[id], true
}

type resolved struct {
	id   rdf.ID
	have bool
	link *links.Link // non-nil when resolving crossed a sameAs edge
}

// resolutions returns the ways a pattern node can be bound in graph g
// under the row's bindings: directly, or through each sameAs equivalent
// present in g. An unbound node yields a single wildcard resolution.
func (f *Federator) resolutions(g store.TripleStore, n sparql.Node, b sparql.Binding) []resolved {
	var t rdf.Term
	if n.IsVar {
		bound, ok := b[n.Var]
		if !ok {
			return []resolved{{have: false}}
		}
		t = bound
	} else {
		t = n.Term
	}
	var out []resolved
	if id, ok := g.Dict().Lookup(t); ok {
		// The term is known to the shared dictionary; it may still not
		// occur in this source, but direct matching will simply find
		// nothing, which is correct.
		out = append(out, resolved{id: id, have: true})
		// Entity terms additionally resolve through sameAs links.
		if t.IsIRI() {
			for _, e := range f.same[id] {
				e := e
				out = append(out, resolved{id: e.other, have: true, link: &e.link})
			}
		}
	}
	if len(out) == 0 {
		// Unknown term: no resolution matches anything.
		return nil
	}
	return out
}

func (f *Federator) matchInSource(g store.TripleStore, tp sparql.TriplePattern, row irow, emit func(irow)) {
	ss := f.resolutions(g, tp.S, row.b)
	ps := f.resolutions(g, tp.P, row.b)
	os := f.resolutions(g, tp.O, row.b)
	for _, rs := range ss {
		for _, rp := range ps {
			for _, ro := range os {
				f.matchResolved(g, tp, row, rs, rp, ro, emit)
			}
		}
	}
}

func (f *Federator) matchResolved(g store.TripleStore, tp sparql.TriplePattern, row irow, rs, rp, ro resolved, emit func(irow)) {
	g.ForEachMatchIDs(rs.id, rp.id, ro.id, rs.have, rp.have, ro.have, func(ms, mp, mo rdf.ID) bool {
		// Repeated-variable consistency before paying for the copy.
		if tp.S.IsVar && tp.O.IsVar && tp.S.Var == tp.O.Var && ms != mo {
			return true
		}
		if tp.S.IsVar && tp.P.IsVar && tp.S.Var == tp.P.Var && ms != mp {
			return true
		}
		if tp.P.IsVar && tp.O.IsVar && tp.P.Var == tp.O.Var && mp != mo {
			return true
		}
		nb := row.b.Copy()
		if tp.S.IsVar && !rs.have {
			nb[tp.S.Var] = g.Dict().Term(ms)
		}
		if tp.P.IsVar && !rp.have {
			nb[tp.P.Var] = g.Dict().Term(mp)
		}
		if tp.O.IsVar && !ro.have {
			nb[tp.O.Var] = g.Dict().Term(mo)
		}
		var crossed []links.Link
		for _, r := range []resolved{rs, rp, ro} {
			if r.link != nil {
				crossed = append(crossed, *r.link)
			}
		}
		emit(irow{b: nb, used: row.used.With(crossed...)})
		return true
	})
}

// Approve reports positive feedback on an answer row: every sameAs link
// the row used is approved (§3.2: "if the answer is correct then the
// link is correct").
func Approve(row Row, sink FeedbackSink) {
	for _, l := range row.Used.Slice() {
		sink.Feedback(l, true)
	}
}

// Reject reports negative feedback on an answer row: every link the row
// used is rejected.
func Reject(row Row, sink FeedbackSink) {
	for _, l := range row.Used.Slice() {
		sink.Feedback(l, false)
	}
}

// String renders a result set compactly for CLI display.
func (rs *ResultSet) String() string {
	s := ""
	for i, r := range rs.Rows {
		s += fmt.Sprintf("[%d]", i)
		vars := append([]string(nil), rs.Vars...)
		sort.Strings(vars)
		for _, v := range vars {
			if t, ok := r.Binding[v]; ok {
				s += fmt.Sprintf(" ?%s=%s", v, t)
			}
		}
		if r.Used.Len() > 0 {
			s += fmt.Sprintf(" (links used: %d)", r.Used.Len())
		}
		s += "\n"
	}
	return s
}
