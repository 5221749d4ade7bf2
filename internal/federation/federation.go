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
// dictionary IDs, and an LRU cache keyed by the query's shape — its
// text with the constants lifted out — shares plans across texts and
// across WithLinks snapshots (plancache.go). One stage loop
// (evalTriples) runs a group's patterns, asking one ranker
// (nextPattern) at every stage boundary which goes next: it prices a
// pattern by a static CountMatch estimate, or by the row counts the
// same evaluation recorded for it (adaptive.go). A query is evaluated by
// the goroutine that asked for it, start to finish, and stops at its
// context's deadline (evalCtx.cancelled). Every source is a local store,
// read directly, so that deadline is the one way an evaluation fails.
//
// From scan to LIMIT a row is dictionary IDs: a fixed-width run of
// rdf.ID in a stage's block (rowset), extended by copying those few
// words and writing the slots a match binds, plus an int32 naming its
// chain of crossed sameAs links in a provenance arena. The stores hand
// out IDs and take IDs, so matching never hashes a term; a FILTER is
// shown a binding of just the variables it reads. sparql's Finalize
// projects, orders and cuts on the same IDs, and the evaluation ends
// there, in an Answer (answer.go): the surviving rows as a projection
// over the ID rows, and every solution's provenance chain. Blocks,
// arena, Finalize's tables and the Answer live in a Scratch that the
// caller hands in and the next evaluation reuses (evalctx.go). Decoding is
// the renderer's business. A library caller gets the public ResultSet —
// a Binding map and a links.Set per row — from Answer.ResultSet;
// internal/server writes its JSON from Answer.Term and Answer.Links and
// decodes nothing. A single-graph query is a federation of one source
// with no links (single.go). Answers, and the join orders executed, are
// pinned by the golden files under testdata/golden.
package federation

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"alex/internal/links"
	"alex/internal/rdf"
	"alex/internal/sparql"
	"alex/internal/store"
)

// Source is a named dataset participating in the federation: a local
// store, in memory or on mmap'd segments. A query reads it directly;
// nothing about a source can fail, and the only way an evaluation fails
// is its context's deadline.
type Source struct {
	Name  string
	Graph store.TripleStore
}

// Row is one federated answer: variable bindings plus the sameAs links
// used to produce it.
type Row struct {
	Binding sparql.Binding
	Used    links.Set
}

// ResultSet holds federated query solutions. For ASK queries Rows is
// empty and Ask carries the answer.
type ResultSet struct {
	Vars []string
	Rows []Row
	Ask  bool
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
	// same indexes the installed link set by endpoint ID: an entity
	// IRI's sameAs edges, each keeping the canonical Link (E1 from the
	// first dataset) for provenance. Immutable once installed: rows under
	// evaluation point into its edge array.
	same sameAs
	// linkCount is the number of distinct installed links, maintained
	// on SetLinks/WithLinks so LinkCount is O(1) on the /links path.
	linkCount int
	// predSources is the source-selection index (the role FedX's SPARQL
	// ASK probes play): for each predicate ID, which sources hold at
	// least one triple with it. Patterns with a bound predicate are
	// only evaluated against relevant sources.
	predSources map[rdf.ID][]int
	// plans, when non-nil, caches compiled plans by query shape; shared
	// with WithLinks snapshots because plans are link-independent.
	plans *PlanCache
	// replans counts the ranker's rankings after a group's first stage
	// (adaptive.go); shared with WithLinks snapshots, so the count is
	// monotone across snapshot publications.
	replans *atomic.Uint64
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

// sameAs is a link set's edge index, dense by ID: the edges of ID i are
// edges[off[i]:off[i+1]]. An ID past the table has none, and so does
// rdf.NoID. The zero value is the index of no links.
type sameAs struct {
	off   []uint32
	edges []edge
}

// of returns id's sameAs edges.
func (s *sameAs) of(id rdf.ID) []edge {
	if int(id) >= len(s.off)-1 {
		return nil
	}
	return s.edges[s.off[id]:s.off[id+1]]
}

// New returns a federator over the given shared dictionary.
func New(dict *rdf.Dict) *Federator {
	return &Federator{
		dict:        dict,
		predSources: make(map[rdf.ID][]int),
		replans:     new(atomic.Uint64),
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
// to the index (re-register to refresh).
func (f *Federator) Add(src Source) error {
	if src.Graph.Dict() != f.dict {
		return fmt.Errorf("federation: source %q does not share the federator dictionary", src.Name)
	}
	idx := len(f.sources)
	f.sources = append(f.sources, src)
	for _, p := range src.Graph.PredicateIDs() {
		f.predSources[p] = append(f.predSources[p], idx)
	}
	return nil
}

// Sources returns the registered sources.
func (f *Federator) Sources() []Source { return f.sources }

// SetLinks replaces the sameAs link set. Call it again whenever ALEX's
// candidate set changes. The replacement edge index is built fully
// before it is installed, so a Query that started before SetLinks
// returns sees either the old index or the new one, never a half-filled
// one. SetLinks itself is still a write: callers that share one
// Federator across goroutines must not call it concurrently with Query —
// use WithLinks to publish an immutable snapshot instead.
func (f *Federator) SetLinks(ls links.Set) {
	f.same = buildSameAs(f.dict, ls.Slice())
	f.linkCount = ls.Len()
}

// WithLinks returns a new Federator over the same dictionary and sources
// with the given sameAs link set installed. The sources, the
// source-selection index and the plan cache are shared (sources and
// index are immutable after registration; plans are link-independent);
// only the sameAs edge index is fresh. The returned Federator is a
// snapshot: treat it as immutable after publication — never call
// SetLinks or AddSource on it — and concurrent Query calls are then
// safe without locking.
func (f *Federator) WithLinks(ls links.Set) *Federator { return f.WithSortedLinks(ls.Slice()) }

// WithSortedLinks is WithLinks over the set's links in (E1, E2) order,
// as links.Set.Slice returns them, for a caller that keeps the set
// sorted and need not sort it again. sorted is read, not retained.
// This is the read path of the alexd single-writer architecture.
func (f *Federator) WithSortedLinks(sorted []links.Link) *Federator {
	return &Federator{
		dict:        f.dict,
		sources:     f.sources,
		same:        buildSameAs(f.dict, sorted),
		linkCount:   len(sorted),
		predSources: f.predSources,
		plans:       f.plans,
		replans:     f.replans,
		traceExec:   f.traceExec,
	}
}

// buildSameAs indexes the links by endpoint, in their (E1, E2) order,
// so each ID's edges (and with them row and provenance order) follow
// the sorted links. Only IRIs resolve through sameAs, so only endpoints
// that are IRIs get edges; that is decided here, once per link set, so
// that evaluation can go from a bound ID to its equivalents without
// looking at the term. The offsets cost 4 bytes per ID up to the
// largest linked one.
func buildSameAs(d *rdf.Dict, sorted []links.Link) sameAs {
	isIRI := func(id rdf.ID) bool {
		return id != rdf.NoID && int(id) <= d.Len() && d.Term(id).IsIRI()
	}
	top := 0
	for _, l := range sorted {
		top = max(top, int(l.E1), int(l.E2))
	}
	top = min(top, d.Len())
	// A counting sort: each ID's edge count goes to off[id+2]; after the
	// prefix sum off[id+1] is where the ID's edges start, and it serves
	// as the ID's fill cursor, which leaves it where ID id+1's start.
	off := make([]uint32, top+3)
	for _, l := range sorted {
		if isIRI(l.E1) {
			off[l.E1+2]++
		}
		if isIRI(l.E2) {
			off[l.E2+2]++
		}
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	edges := make([]edge, off[len(off)-1])
	place := func(id, other rdf.ID, l links.Link) {
		edges[off[id+1]] = edge{other: other, link: l}
		off[id+1]++
	}
	for _, l := range sorted {
		if isIRI(l.E1) {
			place(l.E1, l.E2, l)
		}
		if isIRI(l.E2) {
			place(l.E2, l.E1, l)
		}
	}
	return sameAs{off: off, edges: edges}
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
// evaluation, which returns ctx's error, and no answer, within one
// check interval of ctx being done (evalCtx.cancelled). When a plan
// cache is installed (SetPlanCache), a text whose shape was planned
// before skips the parser and the compiler. The evaluation runs in a
// pooled Scratch, which goes back once the answer is decoded.
func (f *Federator) QueryContext(ctx context.Context, query string) (*ResultSet, error) {
	sc := scratches.Get().(*Scratch)
	defer putScratch(sc)
	a, err := f.EvaluateIn(ctx, time.Time{}, query, sc)
	if err != nil {
		return nil, err
	}
	return a.ResultSet(), nil
}

// Evaluate is QueryContext stopping short of the decode: the answer
// stays in dictionary-ID form for a caller that renders it itself, in a
// Scratch of its own.
func (f *Federator) Evaluate(ctx context.Context, query string) (*Answer, error) {
	return f.EvaluateIn(ctx, time.Time{}, query, new(Scratch))
}

// EvaluateIn is Evaluate in sc, where the answer lives until sc
// evaluates again, stopping at ctx's end or at deadline (zero: ctx's
// alone); past the deadline it returns context.DeadlineExceeded. With
// a plan cache installed the text's shape is its key: on a hit the
// cached plan runs with the text's own constants bound, on a miss the
// text is parsed and planned and the plan cached. Parse failures are
// returned, not cached: malformed queries are cheap to re-reject and
// must not evict useful plans. A hit whose LIMIT or OFFSET is no count
// is parsed too, for the parser's error, and caches nothing. The shape
// is made in stack buffers, which a longer text outgrows onto the heap.
func (f *Federator) EvaluateIn(ctx context.Context, deadline time.Time, query string, sc *Scratch) (*Answer, error) {
	var consts []string
	var key []byte
	if f.plans != nil {
		var keyBuf [256]byte
		var constBuf [16]string
		if s, ok := (sparql.Shape{Key: keyBuf[:0], Consts: constBuf[:0]}).Scan(query); ok {
			if p := f.plans.get(s.Key); p == nil {
				consts, key = s.Consts, s.Key
			} else if _, _, ok := p.q.Limits(s.Consts); ok {
				return f.evalPlan(ctx, deadline, p, s.Consts, sc)
			}
		}
	}
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, err
	}
	// consts may live in constBuf, which the cached plan outlives.
	p := f.planQuery(q, slices.Clone(consts))
	if key != nil {
		f.plans.put(string(key), p)
	}
	return f.evalPlan(ctx, deadline, p, nil, sc)
}

// EvalContext evaluates a parsed query across the federation. The
// query is planned on every call — the plan cache only applies to
// QueryContext, which has the query text to key it by.
func (f *Federator) EvalContext(ctx context.Context, q *sparql.Query) (*ResultSet, error) {
	sc := scratches.Get().(*Scratch)
	defer putScratch(sc)
	a, err := f.evalPlan(ctx, time.Time{}, f.planQuery(q, nil), nil, sc)
	if err != nil {
		return nil, err
	}
	return a.ResultSet(), nil
}

// evalPlan runs a compiled plan in sc with consts, the constants of the
// text being answered (nil: the plan's own), bound (bindConsts):
// evaluate the pattern tree and finalize through the sparql engine —
// still on IDs. A stopped evaluation returns why and finalizes nothing.
func (f *Federator) evalPlan(ctx context.Context, deadline time.Time, p *plan, consts []string, sc *Scratch) (*Answer, error) {
	if len(f.sources) == 0 {
		return nil, fmt.Errorf("federation: no sources registered")
	}
	ec := &sc.ec
	rows := ec.begin(ctx, deadline, p)
	// A pooled Scratch pins no request, plan or snapshot.
	defer func() { ec.ctx, ec.pats, ec.m = nil, nil, matcher{visit: ec.m.visit} }()
	f.bindConsts(ec, p, consts)
	if p.root != nil {
		rows = f.evalGroup(ec, p.root, rows)
	}
	if err := ec.err(); err != nil {
		return nil, err
	}

	q := p.q
	if consts != nil {
		// EvaluateIn has checked that the text's counts are counts.
		if limit, offset, _ := q.Limits(consts); limit != q.Limit || offset != q.Offset {
			sc.q = *q
			sc.q.Limit, sc.q.Offset = limit, offset
			q = &sc.q
		}
	}
	proj := sc.fin.Finalize(q, f.dict, sparql.Solutions{Vars: p.vars, IDs: rows.ids, N: rows.len()})
	sc.ans = Answer{Projection: proj, prov: rows.prov, arena: ec.arena,
		groupLinks: sc.ans.groupLinks[:0], groupStart: sc.ans.groupStart[:0]}
	return &sc.ans, nil
}

// evalGroup evaluates one group pattern over the input rows: triple
// patterns, then union constructs, optionals and filters, each stage a
// loop over its input rows filling one block. The input is never
// modified; the result may be the input itself, and the blocks of a
// union alternative or an optional row are reused once their rows are
// copied out. A stage that finds the evaluation cancelled stops where
// it is; what it returns is then discarded by evalPlan.
func (f *Federator) evalGroup(ec *evalCtx, g *cgroup, rows rowset) rowset {
	rows = f.evalTriples(ec, g, rows)

	for _, alts := range g.unions {
		merged := ec.block(rows.w, 0)
		for _, alt := range alts {
			mark := ec.used
			merged.addAll(f.evalGroup(ec, alt, rows))
			ec.used = mark
		}
		rows = *merged
	}

	for _, opt := range g.optionals {
		out := ec.block(rows.w, 0)
		for i := 0; i < rows.len() && !ec.cancelled(); i++ {
			mark := ec.used
			if sub := f.evalGroup(ec, opt, rows.slice(i, i+1)); sub.len() > 0 {
				out.addAll(sub)
			} else {
				out.add(rows.row(i), rows.prov[i])
			}
			ec.used = mark
		}
		rows = *out
	}

	for _, flt := range g.filters {
		out := ec.block(rows.w, 0)
		// The expression sees a binding of just the variables it
		// reads, decoded per row into one reused map.
		if ec.filterBinding == nil {
			ec.filterBinding = make(sparql.Binding, len(flt.vars))
		}
		b := ec.filterBinding
		expr := ec.expr(flt)
		for i := 0; i < rows.len() && !ec.cancelled(); i++ {
			row := rows.row(i)
			clear(b)
			for k, slot := range flt.slots {
				if id := row[slot]; id != rdf.NoID {
					b[flt.vars[k]] = f.dict.Term(id)
				}
			}
			v, err := expr.Eval(b)
			if err != nil {
				continue // SPARQL expression error: filter is false
			}
			if ok, err := sparql.EffectiveBool(v); err == nil && ok {
				out.add(row, rows.prov[i])
			}
		}
		rows = *out
	}
	return rows
}

// evalTriples is the one stage loop: it runs a group's triple patterns
// over rows, one stage per pattern, until the patterns or the rows run
// out. At every stage boundary the ranker picks the pattern to run next
// against the live row count, and every stage's row counts are recorded
// for the rankings to come in the same evaluation. A group of fewer
// than two patterns has nothing to rank and records nothing.
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
		ec.bound = append(ec.bound[:0], g.bound...)
		ec.scheduled = slices.Grow(ec.scheduled[:0], len(pats))[:len(pats)]
		clear(ec.scheduled)
		for done := 0; done < len(pats) && !ec.cancelled(); done++ {
			in := rows.len()
			ti := f.nextPattern(ec, g, ec.bound, ec.scheduled, in)
			if done > 0 {
				f.replans.Add(1)
			}
			rows = f.evalPattern(ec, pats[ti], rows)
			ec.record(g.first+ti, in, rows.len())
			ec.scheduled[ti] = true
			pats[ti].bind(ec.bound)
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
// pattern's matches, into a block of its own. A scan — one input row,
// no bound slot read — knows how many rows it makes before it runs, and
// its block is made at that size; any other stage's block grows by
// append, so a cross product never allocates up front.
func (f *Federator) evalPattern(ec *evalCtx, pat cpattern, rows rowset) rowset {
	m := f.newMatcher(ec, pat)
	n := 0
	if rows.len() == 1 && !m.dead && !pat.readsBound(rows.row(0)) {
		n = m.count()
	}
	m.out = ec.block(rows.w, n)
	for i := 0; i < rows.len() && !ec.cancelled(); i++ {
		m.match(rows.row(i), rows.prov[i])
	}
	return *m.out
}

// rowset is a block of intermediate rows: len(prov) rows of w
// dictionary IDs each, row-major in ids (row i is ids[i*w:(i+1)*w], its
// slots laid out as plan.vars; rdf.NoID is unbound), and per row its
// provenance chain in the arena. A block is filled by the stage that
// makes it (evalCtx.block) and read-only once handed on: one backing
// array of IDs per block, no allocation per row. A rowset value is a
// view of a block.
type rowset struct {
	w    int
	ids  []rdf.ID
	prov []int32
}

func (r *rowset) len() int { return len(r.prov) }

func (r *rowset) row(i int) []rdf.ID { return r.ids[i*r.w : (i+1)*r.w] }

// slice returns rows [lo, hi) as a read-only view.
func (r *rowset) slice(lo, hi int) rowset {
	return rowset{w: r.w, ids: r.ids[lo*r.w : hi*r.w : hi*r.w], prov: r.prov[lo:hi:hi]}
}

// add appends a copy of row.
func (r *rowset) add(row []rdf.ID, prov int32) {
	r.ids = append(r.ids, row...)
	r.prov = append(r.prov, prov)
}

func (r *rowset) addAll(o rowset) {
	r.ids = append(r.ids, o.ids...)
	r.prov = append(r.prov, o.prov...)
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
	return binding{id: id, have: true, edges: f.same.of(id)}
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
// federator's immutable edge array, not copied.
func (b *binding) resolution(k int) resolved {
	if k < 0 {
		return resolved{id: b.id, have: b.have}
	}
	return resolved{id: b.edges[k].other, have: true, link: &b.edges[k].link}
}

// matcher runs one pattern stage: it extends input rows by the
// pattern's matches into the stage's output block. Stages run one at a
// time, so an evaluation has one, in its evalCtx, whose store callback
// is one method value made once per Scratch, not a closure per probe.
type matcher struct {
	f     *Federator
	ec    *evalCtx
	pat   cpattern
	out   *rowset
	visit func(s, p, o rdf.ID) bool
	// srcs are the sources a probe visits unless its row binds the
	// pattern's variable predicate: those holding a constant predicate,
	// read once per stage, or every source.
	srcs []int

	// The probe in flight: the row being extended, how its three
	// positions read (constants are read once, when the matcher is made)
	// and how each is resolved.
	row        []rdf.ID
	prov       int32
	s, p, o    binding
	rs, rp, ro resolved
	// ext is prov extended by the links rs, rp and ro crossed, made on
	// the probe's first match and shared by the rest.
	ext    int32
	extSet bool

	// dead: the pattern holds a constant the dictionary lacks, which
	// nothing can match.
	dead bool
}

// newMatcher readies ec's matcher for a stage of pat.
func (f *Federator) newMatcher(ec *evalCtx, pat cpattern) *matcher {
	m := &ec.m
	if m.visit == nil {
		m.visit = m.emit
	}
	*m = matcher{f: f, ec: ec, pat: pat, visit: m.visit}
	for _, n := range pat.nodes() {
		m.dead = m.dead || n.slot < 0 && n.id == rdf.NoID
	}
	m.s, m.p, m.o = f.bindingOf(pat.s.id), f.bindingOf(pat.p.id), f.bindingOf(pat.o.id)
	m.srcs = f.candidateSources(&pat)
	return m
}

// match matches the pattern against the relevant sources, extending
// row. When a bound entity does not occur in a source, its sameAs
// equivalents are tried, and any equivalence used is recorded in the
// row's provenance. Source selection: a pattern whose predicate is a
// constant (or a variable already bound) only visits sources holding
// that predicate.
func (m *matcher) match(row []rdf.ID, prov int32) {
	if m.dead {
		return
	}
	f := m.f
	srcs := m.srcs
	if slot := m.pat.s.slot; slot >= 0 {
		m.s = f.bindingOf(row[slot])
	}
	if slot := m.pat.p.slot; slot >= 0 {
		if m.p = f.bindingOf(row[slot]); m.p.have {
			srcs = f.predSources[m.p.id]
		}
	}
	if slot := m.pat.o.slot; slot >= 0 {
		m.o = f.bindingOf(row[slot])
	}
	m.row, m.prov = row, prov
	for _, si := range srcs {
		m.matchInSource(f.sources[si].Graph)
	}
}

// count returns how many triples the probes of a row binding none of
// the pattern's variables match: the rows the stage makes, unless a
// repeated variable rejects some of them.
func (m *matcher) count() int {
	n := 0
	for _, si := range m.srcs {
		g := m.f.sources[si].Graph
		for ks := -1; ks < len(m.s.edges); ks++ {
			rs := m.s.resolution(ks)
			for kp := -1; kp < len(m.p.edges); kp++ {
				rp := m.p.resolution(kp)
				for ko := -1; ko < len(m.o.edges); ko++ {
					ro := m.o.resolution(ko)
					n += g.CountMatch(rs.id, rp.id, ro.id, rs.have, rp.have, ro.have)
				}
			}
		}
	}
	return n
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
	out := m.out
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
func (m *matcher) extend() int32 {
	p := m.prov
	for _, l := range [3]*links.Link{m.rs.link, m.rp.link, m.ro.link} {
		if l != nil {
			p = m.ec.arena.with(p, *l)
		}
	}
	return p
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
