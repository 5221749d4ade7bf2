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
// into link-independent plans (plan.go): every variable of the WHERE
// tree gets a slot, every triple pattern becomes slots and constant
// dictionary IDs, and an LRU cache shares plans across WithLinks
// snapshots (plancache.go). One stage loop (evalTriples) runs a group's
// patterns, asking one ranker (nextPattern) at every stage boundary
// which goes next: it prices a pattern by the cardinalities this and
// earlier executions of the plan observed and, while there are none, by
// a static CountMatch estimate (adaptive.go). A query is evaluated by
// the goroutine that asked for it, start to finish, and stops at its
// context's deadline (evalCtx.cancelled).
//
// From scan to LIMIT a row is dictionary IDs: a fixed-width run of
// rdf.ID in a stage's block (rowset), extended by copying those few
// words and writing the slots a match binds, plus a persistent
// links.Frozen chain for the sameAs links crossed. The stores hand out
// IDs and take IDs, so matching never hashes a term; a FILTER is shown
// a scratch binding of just the variables it reads. sparql.Finalize
// projects, orders and cuts on the same IDs, and the evaluation ends
// there, in an Answer (answer.go): the surviving rows as a projection
// over the ID rows, and every solution's provenance chain. Decoding is
// the renderer's business. A library caller gets the public ResultSet —
// a Binding map and a links.Set per row — from Answer.ResultSet;
// internal/server writes its JSON from Answer.Term and Answer.Links and
// decodes nothing. A single-graph query is a federation of one source
// with no links (single.go). Answers, and the join orders a plan that
// has learned nothing executes, are pinned by the golden files under
// testdata/golden.
package federation

import (
	"context"
	"fmt"
	"slices"
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
	// same maps an entity IRI's ID to its sameAs edges. Each edge keeps
	// the canonical Link (E1 from the first dataset) for provenance.
	// Immutable once installed: rows under evaluation point into the
	// edge slices.
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
	// plans, when non-nil, caches compiled plans by query text; shared
	// with WithLinks snapshots because plans are link-independent.
	plans *PlanCache
	// ametrics counts the ranker's events (see runtimestats.go);
	// shared with WithLinks snapshots like guards, so the counters are
	// monotone across snapshot publications.
	ametrics *adaptiveMetrics
	// traceExec, when non-nil, observes the executed stage order of
	// every group (indices into grp.Triples, in execution order). Test
	// hook for the golden and ranking determinism suites; never set in
	// production.
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
	f.same = buildSameAs(f.dict, ls)
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
		same:        buildSameAs(f.dict, ls),
		linkCount:   ls.Len(),
		predSources: f.predSources,
		res:         f.res,
		guards:      f.guards,
		plans:       f.plans,
		ametrics:    f.ametrics,
		traceExec:   f.traceExec,
	}
}

// buildSameAs indexes the link set by endpoint. Only IRIs resolve
// through sameAs, so only endpoints that are IRIs get an entry; that
// is decided here, once per link set, so that evaluation can go from a
// bound ID to its equivalents without looking at the term.
func buildSameAs(d *rdf.Dict, ls links.Set) map[rdf.ID][]edge {
	isIRI := func(id rdf.ID) bool {
		return id != rdf.NoID && int(id) <= d.Len() && d.Term(id).IsIRI()
	}
	same := make(map[rdf.ID][]edge, 2*ls.Len())
	for _, l := range ls.Slice() {
		if isIRI(l.E1) {
			same[l.E1] = append(same[l.E1], edge{other: l.E2, link: l})
		}
		if isIRI(l.E2) {
			same[l.E2] = append(same[l.E2], edge{other: l.E1, link: l})
		}
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
// per-source access probes (and their retries) and the evaluation
// itself, which returns ctx's error, and no answer, within one check
// interval of ctx being done (evalCtx.cancelled). When a plan cache is
// installed (SetPlanCache), a repeated query text skips the parser and
// the compiler and ranks by what its earlier evaluations observed.
func (f *Federator) QueryContext(ctx context.Context, query string) (*ResultSet, error) {
	a, err := f.evalText(ctx, query)
	if err != nil {
		return nil, err
	}
	return a.ResultSet(), nil
}

// Evaluate is QueryContext stopping short of the decode: the answer
// stays in dictionary-ID form for a caller that renders it itself.
func (f *Federator) Evaluate(ctx context.Context, query string) (*Answer, error) {
	a, err := f.evalText(ctx, query)
	if err != nil {
		return nil, err
	}
	return &a, nil
}

// evalText plans (or finds the cached plan of) a query text and runs it.
func (f *Federator) evalText(ctx context.Context, query string) (Answer, error) {
	p, err := f.planFor(query)
	if err != nil {
		return Answer{}, err
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
	a, err := f.evalPlan(ctx, f.planQuery(q))
	if err != nil {
		return nil, err
	}
	return a.ResultSet(), nil
}

// evalPlan runs a compiled plan: probe the plan's sources (in
// parallel, so Degraded is decided before evaluation and independent
// of join order), evaluate the pattern tree and finalize through the
// sparql engine — still on IDs. A plan with an order to choose (p.obs
// non-nil) takes a RuntimeStats table along: probes and stages record
// into it, ranking consults it, and it is folded into the plan's
// learned table at the end so the next query over a cached plan starts
// from real cardinalities. An evaluation whose context is done by then
// returns the context's error instead: it folds nothing, so a half-run
// stage never steers a later query's order, and finalizes nothing.
func (f *Federator) evalPlan(ctx context.Context, p *plan) (Answer, error) {
	if len(f.sources) == 0 {
		return Answer{}, fmt.Errorf("federation: no sources registered")
	}
	var stats *RuntimeStats
	if p.obs != nil {
		stats = newRuntimeStats(len(p.pats), len(f.sources))
	}
	ec := f.newEvalCtx(ctx, p.probe, stats)
	ec.pats = p.pats
	if p.unresolved {
		ec.pats = f.resolveConstants(p)
	}
	if stats != nil && p.obs.validate(f.linkCount) {
		ec.learned = p.obs
		f.ametrics.learnedHits.Add(1)
	}
	// Evaluation starts from one row with every slot unbound.
	w := len(p.vars)
	rows := rowset{w: w, ids: make([]rdf.ID, w), used: []*links.Frozen{nil}}
	if p.root != nil {
		rows = f.evalGroup(ec, p.root, rows)
	}
	if err := ec.ctx.Err(); err != nil {
		return Answer{}, err
	}
	if stats != nil {
		stats.foldInto(p.obs)
	}

	proj, err := sparql.Finalize(p.q, f.dict, sparql.Solutions{Vars: p.vars, IDs: rows.ids, N: rows.len()})
	if err != nil {
		return Answer{}, err
	}
	return Answer{Projection: proj, Degraded: ec.degradedNames(f), used: rows.used}, nil
}

// evalGroup evaluates one group pattern over the input rows: triple
// patterns, then union constructs, optionals and filters, each stage a
// loop over its input rows filling one block. The input is never
// modified; the result may be the input itself. A stage that finds the
// evaluation cancelled stops where it is; what it returns is then
// discarded by evalPlan.
func (f *Federator) evalGroup(ec *evalCtx, g *cgroup, rows rowset) rowset {
	rows = f.evalTriples(ec, g, rows)

	for _, alts := range g.unions {
		merged := rowset{w: rows.w}
		for _, alt := range alts {
			merged.addAll(f.evalGroup(ec, alt, rows))
		}
		rows = merged
	}

	for _, opt := range g.optionals {
		out := rowset{w: rows.w}
		for i := 0; i < rows.len() && !ec.cancelled(); i++ {
			sub := f.evalGroup(ec, opt, rows.slice(i, i+1))
			if sub.len() == 0 {
				out.add(rows.row(i), rows.used[i])
				continue
			}
			out.addAll(sub)
		}
		rows = out
	}

	for _, flt := range g.filters {
		out := rowset{w: rows.w}
		// The expression sees a binding of just the variables it
		// reads, decoded per row into one reused map.
		b := make(sparql.Binding, len(flt.vars))
		for i := 0; i < rows.len() && !ec.cancelled(); i++ {
			row := rows.row(i)
			clear(b)
			for k, slot := range flt.slots {
				if id := row[slot]; id != rdf.NoID {
					b[flt.vars[k]] = f.dict.Term(id)
				}
			}
			v, err := flt.expr.Eval(b)
			if err != nil {
				continue // SPARQL expression error: filter is false
			}
			if ok, err := sparql.EffectiveBool(v); err == nil && ok {
				out.add(row, rows.used[i])
			}
		}
		rows = out
	}
	return rows
}

// evalTriples is the one stage loop: it runs a group's triple patterns
// over rows, one stage per pattern, until the patterns or the rows run
// out. At every stage boundary the ranker picks the pattern to run next
// against the live row count, and every stage's row counts are recorded
// for the rankings to come. A group of fewer than two patterns has
// nothing to rank: it allocates no ranking state and records nothing.
func (f *Federator) evalTriples(ec *evalCtx, g *cgroup, rows rowset) rowset {
	pats := ec.pats[g.first : g.first+len(g.src.Triples)]
	var executed []int
	switch {
	case len(pats) == 1:
		rows = f.evalPattern(ec, pats[0], rows)
		if f.traceExec != nil {
			executed = []int{0}
		}
	case len(pats) > 1:
		bound := slices.Clone(g.bound)
		scheduled := make([]bool, len(pats))
		for done := 0; done < len(pats) && !ec.cancelled(); done++ {
			in := rows.len()
			ti := f.nextPattern(ec, g, bound, scheduled, in)
			if done > 0 {
				f.ametrics.replans.Add(1)
			}
			rows = f.evalPattern(ec, pats[ti], rows)
			ec.stats.record(g.first+ti, in, rows.len())
			scheduled[ti] = true
			pats[ti].bind(bound)
			if f.traceExec != nil {
				executed = append(executed, ti)
			}
			if rows.len() == 0 {
				break
			}
		}
	}
	if f.traceExec != nil {
		f.traceExec(g.src, executed)
	}
	return rows
}

// evalPattern runs one pattern stage: every input row extended by the
// pattern's matches.
func (f *Federator) evalPattern(ec *evalCtx, pat cpattern, rows rowset) rowset {
	m := f.newMatcher(ec, pat, rows.w)
	for i := 0; i < rows.len() && !ec.cancelled(); i++ {
		m.match(rows.row(i), rows.used[i])
	}
	return m.out
}

// rowset is a block of intermediate rows: len(used) rows of w
// dictionary IDs each, row-major in ids (row i is ids[i*w:(i+1)*w], its
// slots laid out as plan.vars; rdf.NoID is unbound), and per row the
// sameAs links its derivation has crossed so far, as a persistent chain
// that extending never copies. A block is filled by the stage that
// makes it and read-only once handed on, so it doubles as the arena its
// rows live in: one backing array of IDs per block, no allocation per
// row.
type rowset struct {
	w    int
	ids  []rdf.ID
	used []*links.Frozen
}

func (r *rowset) len() int { return len(r.used) }

func (r *rowset) row(i int) []rdf.ID { return r.ids[i*r.w : (i+1)*r.w] }

// slice returns rows [lo, hi) as a read-only view.
func (r *rowset) slice(lo, hi int) rowset {
	return rowset{w: r.w, ids: r.ids[lo*r.w : hi*r.w : hi*r.w], used: r.used[lo:hi:hi]}
}

// add appends a copy of row.
func (r *rowset) add(row []rdf.ID, used *links.Frozen) {
	r.ids = append(r.ids, row...)
	r.used = append(r.used, used)
}

func (r *rowset) addAll(o rowset) {
	r.ids = append(r.ids, o.ids...)
	r.used = append(r.used, o.used...)
}

// binding is how a pattern position reads under one row: unbound
// (have false: a wildcard), or bound to id — by the row or by the
// pattern's constant — and then also reachable through each of id's
// sameAs edges.
type binding struct {
	id    rdf.ID
	have  bool
	edges []edge
}

// bindingOf reads a position holding id; rdf.NoID is an unbound slot.
func (f *Federator) bindingOf(id rdf.ID) binding {
	if id == rdf.NoID {
		return binding{}
	}
	return binding{id: id, have: true, edges: f.same[id]}
}

// resolved is one way of matching a bound position: as the ID itself
// (link nil), or as a sameAs equivalent, pointing at the link crossed.
type resolved struct {
	id   rdf.ID
	have bool
	link *links.Link
}

// resolution returns the k-th way of matching b: k == -1 is b itself,
// k >= 0 its k-th sameAs equivalent. The link is addressed inside the
// federator's immutable edge slice, not copied.
func (b *binding) resolution(k int) resolved {
	if k < 0 {
		return resolved{id: b.id, have: b.have}
	}
	return resolved{id: b.edges[k].other, have: true, link: &b.edges[k].link}
}

// matcher runs one pattern stage: it extends input rows by the
// pattern's matches into the stage's output block. It exists so that
// the store callback is one method value made once per stage, not a
// closure per probe.
type matcher struct {
	f     *Federator
	ec    *evalCtx
	pat   cpattern
	out   rowset
	visit func(s, p, o rdf.ID) bool
	// dead: the pattern holds a constant the dictionary lacks, which
	// nothing can match.
	dead bool

	// The probe in flight: the row being extended, how its three
	// positions read (constants are read once, when the matcher is made)
	// and how each is resolved.
	row        []rdf.ID
	used       *links.Frozen
	s, p, o    binding
	rs, rp, ro resolved
	// ext is used extended by the links rs, rp and ro crossed, built on
	// the probe's first match and shared by the rest.
	ext    *links.Frozen
	extSet bool
}

func (f *Federator) newMatcher(ec *evalCtx, pat cpattern, width int) *matcher {
	m := &matcher{f: f, ec: ec, pat: pat, out: rowset{w: width}}
	m.visit = m.emit
	for _, n := range pat.nodes() {
		m.dead = m.dead || n.slot < 0 && n.id == rdf.NoID
	}
	m.s, m.p, m.o = f.bindingOf(pat.s.id), f.bindingOf(pat.p.id), f.bindingOf(pat.o.id)
	return m
}

// match matches the pattern against the relevant sources, extending
// row. When a bound entity does not occur in a source, its sameAs
// equivalents are tried, and any equivalence used is recorded in the
// row's provenance. Source selection: a pattern whose predicate is a
// constant (or a variable already bound) only visits sources holding
// that predicate. Sources that failed their upfront availability probe
// are skipped (the evaluation degrades instead of failing).
func (m *matcher) match(row []rdf.ID, used *links.Frozen) {
	if m.dead {
		return
	}
	f := m.f
	if slot := m.pat.s.slot; slot >= 0 {
		m.s = f.bindingOf(row[slot])
	}
	if slot := m.pat.p.slot; slot >= 0 {
		m.p = f.bindingOf(row[slot])
	}
	if slot := m.pat.o.slot; slot >= 0 {
		m.o = f.bindingOf(row[slot])
	}
	m.row, m.used = row, used
	if m.p.have {
		for _, si := range f.predSources[m.p.id] {
			if m.ec.available(si) {
				m.matchInSource(f.sources[si].Graph)
			}
		}
		return
	}
	for si, src := range f.sources {
		if m.ec.available(si) {
			m.matchInSource(src.Graph)
		}
	}
}

// matchInSource probes g once per combination of resolutions of the
// three positions: the bound ID itself first, then each sameAs
// equivalent.
func (m *matcher) matchInSource(g store.TripleStore) {
	for ks := -1; ks < len(m.s.edges); ks++ {
		m.rs = m.s.resolution(ks)
		for kp := -1; kp < len(m.p.edges); kp++ {
			m.rp = m.p.resolution(kp)
			for ko := -1; ko < len(m.o.edges); ko++ {
				m.ro = m.o.resolution(ko)
				m.extSet = false
				g.ForEachMatchIDs(m.rs.id, m.rp.id, m.ro.id, m.rs.have, m.rp.have, m.ro.have, m.visit)
			}
		}
	}
}

// emit receives one matching triple of the probe in flight and appends
// the extended row: the input row's IDs with the pattern's unbound
// variables set to what the triple holds in their position. A variable
// that was bound keeps its value (the queried alias, not the
// equivalent that matched). It counts towards the deadline check, and
// stops the store's scan when that fails: one input row may fan out
// over a whole store.
func (m *matcher) emit(ms, mp, mo rdf.ID) bool {
	if m.ec.cancelled() {
		return false
	}
	s, p, o := m.pat.s.slot, m.pat.p.slot, m.pat.o.slot
	// Repeated-variable consistency before paying for the copy.
	if s >= 0 && (s == o && ms != mo || s == p && ms != mp) || p >= 0 && p == o && mp != mo {
		return true
	}
	if !m.extSet {
		m.ext, m.extSet = m.extend(), true
	}
	out := &m.out
	base := len(out.ids)
	out.add(m.row, m.ext)
	if s >= 0 && !m.rs.have {
		out.ids[base+int(s)] = ms
	}
	if p >= 0 && !m.rp.have {
		out.ids[base+int(p)] = mp
	}
	if o >= 0 && !m.ro.have {
		out.ids[base+int(o)] = mo
	}
	return true
}

// extend returns the input row's provenance plus the links the probe in
// flight crossed.
func (m *matcher) extend() *links.Frozen {
	var crossed [3]links.Link
	n := 0
	for _, l := range [3]*links.Link{m.rs.link, m.rp.link, m.ro.link} {
		if l != nil {
			crossed[n] = *l
			n++
		}
	}
	if n == 0 {
		return m.used
	}
	return m.used.With(crossed[:n]...)
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
