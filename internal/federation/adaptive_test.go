package federation

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"alex/internal/links"
	"alex/internal/rdf"
	"alex/internal/sparql"
	"alex/internal/synth"
)

// skewedFederation builds the skewed-hub synth federation at the
// given scale plus the query shape the profile is designed to
// mislead. Stage ids of the query's patterns follow written order:
// 0 = category, 1 = connectedWith (the hub fan-out), 2 = type filter.
func skewedFederation(t testing.TB, scale float64) (*Federator, *synth.Dataset, string) {
	t.Helper()
	prof, ok := synth.ProfileByName("skewed-hub")
	if !ok {
		t.Fatal("missing skewed-hub profile")
	}
	ds := synth.Generate(prof.Scale(scale))
	f := New(ds.Dict)
	if err := f.AddSource("ds1", ds.G1); err != nil {
		t.Fatal(err)
	}
	if err := f.AddSource("ds2", ds.G2); err != nil {
		t.Fatal(err)
	}
	f.SetLinks(ds.GroundTruth)
	query := fmt.Sprintf(`SELECT ?e ?x WHERE {
		?e <http://ds1.example.org/onto/category> %q .
		?e <http://ds2.example.org/prop/connectedWith> ?x .
		?e <http://ds1.example.org/onto/type> "active" .
	}`, synth.SkewSeedCategory)
	return f, ds, query
}

// skewedWorld is skewedFederation at test scale (100 entity pairs).
func skewedWorld(t testing.TB) (*Federator, *synth.Dataset, string) {
	t.Helper()
	return skewedFederation(t, 0.1)
}

// traceOf installs a traceExec hook on a shallow copy of f and returns
// the copy plus the captured executed-order sequence (one entry per
// evaluated group, in evaluation order).
func traceOf(f *Federator) (*Federator, *[][]int) {
	cp := copyOf(f)
	var traces [][]int
	cp.traceExec = func(_ *sparql.GroupGraphPattern, order []int) {
		traces = append(traces, append([]int(nil), order...))
	}
	return cp, &traces
}

// TestFreshPlanRunsPlanTimeOrder is the regression gate for the
// ranker's starting point: a plan that has learned nothing executes the
// order the plan-time planner used to compile from static estimates —
// the one frozen in testdata/golden — and records what it saw.
func TestFreshPlanRunsPlanTimeOrder(t *testing.T) {
	f, _, query := skewedWorld(t)
	q, err := sparql.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	p := f.planQuery(q)
	fed, traces := traceOf(f)
	rs, err := fed.evalPlan(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() == 0 {
		t.Fatal("query returned no rows")
	}
	want := loadGolden(t, "synth-skewed-hub")["hub-fanout"].StaticOrders
	if len(*traces) != 1 || !reflect.DeepEqual(orderCounts([]string{fmt.Sprint((*traces)[0])}), want) {
		t.Fatalf("executed order %v, golden static order %v", *traces, want)
	}
	for i := range p.obs.stages {
		if p.obs.stages[i].runs.Load() != 1 {
			t.Fatalf("stage %d folded %d runs into the plan, want 1", i, p.obs.stages[i].runs.Load())
		}
	}
}

// TestSinglePatternGroupObservesNothing: bench/e2e's lookup text is one
// pattern, so there is no order to choose — its plan carries no learned
// table, and a warm evaluation allocates exactly what it did before the
// stage loop ranked anything, less the two the decoded sparql.Result
// cost before Finalize stopped at ID rows and the closure a stage
// handed to the row fan-out (26 at ba58ad9 with this test's body), and
// less the per-source availability state every evaluation set up until
// sources stopped being probed (23 then, 21 now).
func TestSinglePatternGroupObservesNothing(t *testing.T) {
	f, _ := joinShapeWorld(t, 0.1)
	fed := copyOf(f)
	fed.SetPlanCache(NewPlanCache(4))
	query := "SELECT ?n WHERE { <http://ds1.example.org/resource/E0> <" + synth.P2Name.Value + "> ?n . }"
	// joinShapeWorld ran the join shapes through the same counters.
	replans0, hits0 := fed.AdaptiveStats()
	// One row across one link; also warms the plan cache.
	if rs, err := fed.Query(query); err != nil || len(rs.Rows) != 1 || rs.Rows[0].Used.Len() != 1 {
		t.Fatalf("rows %v, err %v; want one row across one link", rs, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := fed.Query(query); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 21 {
		t.Errorf("a warm lookup allocates %v times, want 21", allocs)
	}
	p, err := fed.planFor(query)
	if err != nil {
		t.Fatal(err)
	}
	if p.obs != nil {
		t.Error("a single-pattern plan carries a learned table")
	}
	if replans, hits := fed.AdaptiveStats(); replans != replans0 || hits != hits0 {
		t.Errorf("lookups counted %d rankings and %d learned hits, want none", replans-replans0, hits-hits0)
	}
}

// TestReenteredGroupRanksByItsOwnCounters is the one case where a fresh
// plan leaves the static order: an OPTIONAL group of two patterns runs
// once per input row, and from its second entry on it is ranked by what
// its first entry recorded in the same query. Statically <fan> (2
// triples) goes before <one> (3 triples); the first entry sees <fan>
// expand 2x and <one> 1x per row, so the second entry runs <one> first.
func TestReenteredGroupRanksByItsOwnCounters(t *testing.T) {
	d := rdf.NewDict()
	g := rdf.NewGraphWithDict(d)
	iri := func(s string) rdf.Term { return rdf.IRI("http://x/" + s) }
	for _, e := range []string{"e1", "e2"} {
		g.Insert(rdf.Triple{S: iri(e), P: iri("is"), O: rdf.Literal("thing")})
		g.Insert(rdf.Triple{S: iri(e), P: iri("one"), O: rdf.Literal("1")})
	}
	g.Insert(rdf.Triple{S: iri("e1"), P: iri("fan"), O: rdf.Literal("a")})
	g.Insert(rdf.Triple{S: iri("e1"), P: iri("fan"), O: rdf.Literal("b")})
	f := Single(g)
	q, err := sparql.Parse(`SELECT ?e ?x ?y WHERE {
		?e <http://x/is> "thing" .
		OPTIONAL { ?e <http://x/fan> ?x . ?e <http://x/one> ?y . }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if !rerunsRankedGroup(q.Where, false) {
		t.Fatal("rerunsRankedGroup misses a two-pattern OPTIONAL")
	}
	fed, traces := traceOf(f)
	rs, err := fed.EvalContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 3 { // e1 twice, e2 with the OPTIONAL unbound
		t.Fatalf("rows = %d, want 3", len(rs.Rows))
	}
	// The root group, then the OPTIONAL for e1 (static order) and for e2
	// (by the counters e1's entry left).
	want := [][]int{{0}, {0, 1}, {1, 0}}
	if !reflect.DeepEqual(*traces, want) {
		t.Fatalf("executed orders %v, want %v", *traces, want)
	}
}

// TestReplanDeterminism: same query + same injected observation
// sequence ⇒ identical executed plan sequence, across repetitions,
// with no wall-clock dependence. Each case rebuilds a
// fresh plan, injects the observations, evaluates once, and compares
// the full group-by-group executed order against the expectation and
// against every other repetition.
func TestReplanDeterminism(t *testing.T) {
	f, _, query := skewedWorld(t)
	q, err := sparql.Parse(query)
	if err != nil {
		t.Fatal(err)
	}

	inject := func(o *obsTable, stage int, in, out uint64) {
		o.stages[stage].in.Store(in)
		o.stages[stage].out.Store(out)
		o.stages[stage].runs.Store(1)
	}
	cases := []struct {
		name   string
		inject func(o *obsTable)
		want   [][]int
	}{
		{
			name:   "no-observations-reproduces-static-plan",
			inject: func(o *obsTable) {},
			want:   [][]int{{0, 1, 2}},
		},
		{
			name: "fanout-observed-hoists-type-filter",
			inject: func(o *obsTable) {
				inject(o, 1, 100, 800) // connectedWith expands 8x per row
				inject(o, 2, 800, 80)  // type filter keeps 1 in 10
			},
			want: [][]int{{0, 2, 1}},
		},
		{
			name: "cheap-fanout-observed-keeps-static-order",
			inject: func(o *obsTable) {
				inject(o, 1, 100, 10)
				inject(o, 2, 10, 80)
			},
			want: [][]int{{0, 1, 2}},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for rep := 0; rep < 20; rep++ {
				p := f.planQuery(q)
				tc.inject(p.obs)
				fed, traces := traceOf(f)
				if _, err := fed.evalPlan(context.Background(), p); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(*traces, tc.want) {
					t.Fatalf("rep %d: executed %v, want %v", rep, *traces, tc.want)
				}
			}
		})
	}
}

// TestAdaptiveLearnsSkewedOrder is the end-to-end learning loop over
// the plan cache: the first query under a cold plan executes the
// (wrong) static order, folds its observations into the cached plan,
// and the second query executes the corrected order — with identical
// answers, a learned-hit counted, and rankings counted.
func TestAdaptiveLearnsSkewedOrder(t *testing.T) {
	f, _, query := skewedWorld(t)
	f.SetPlanCache(NewPlanCache(8))
	fed, traces := traceOf(f)

	first, err := fed.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Rows) == 0 {
		t.Fatal("query returned no rows")
	}
	if _, hits := fed.AdaptiveStats(); hits != 0 {
		t.Fatalf("learned hits after cold query = %d, want 0", hits)
	}
	second, err := fed.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonicalResult(second), canonicalResult(first); got != want {
		t.Fatalf("learned order changed the answer:\n--- first ---\n%s--- second ---\n%s", want, got)
	}
	want := [][]int{{0, 1, 2}, {0, 2, 1}}
	if !reflect.DeepEqual(*traces, want) {
		t.Fatalf("executed orders %v, want %v (static then learned)", *traces, want)
	}
	replans, hits := fed.AdaptiveStats()
	if hits != 1 {
		t.Fatalf("learned hits = %d, want 1", hits)
	}
	if replans < 2 {
		t.Fatalf("replans = %d, want >= 2 (the loop ranks at every stage boundary)", replans)
	}
}

// TestObsEpochInvalidation: learned cardinalities are a function of
// the sameAs link set; when a WithLinks snapshot moves the link count
// past the drift tolerance, the cached plan's observations reset, its
// epoch bumps, and execution falls back to the static order until it
// re-learns under the new links.
func TestObsEpochInvalidation(t *testing.T) {
	f, ds, query := skewedWorld(t)
	f.SetPlanCache(NewPlanCache(8))
	fed, traces := traceOf(f)

	for i := 0; i < 2; i++ { // learn under the full link set
		if _, err := fed.Query(query); err != nil {
			t.Fatal(err)
		}
	}
	p, err := fed.planFor(query)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.obs.Epoch(); got != 0 {
		t.Fatalf("epoch after learning = %d, want 0", got)
	}

	// Drop 30% of the links (keeping the hub entity's), well past the
	// 1/8 + slack tolerance for a 100-link set.
	all := ds.GroundTruth.Slice()
	sub := links.NewSet(all[:70]...)
	snap := fed.WithLinks(sub)
	third, err := snap.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if len(third.Rows) == 0 {
		t.Fatal("query under reduced links returned no rows")
	}
	if got := p.obs.Epoch(); got != 1 {
		t.Fatalf("epoch after link drift = %d, want 1", got)
	}
	if got := (*traces)[2]; !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("post-invalidation order %v, want static {0,1,2}", got)
	}
	// And it re-learns under the new link set without another reset.
	if _, err := snap.Query(query); err != nil {
		t.Fatal(err)
	}
	if got := (*traces)[3]; !reflect.DeepEqual(got, []int{0, 2, 1}) {
		t.Fatalf("re-learned order %v, want {0,2,1}", got)
	}
	if got := p.obs.Epoch(); got != 1 {
		t.Fatalf("epoch after re-learning = %d, want 1", got)
	}
}

// TestObsTableValidate pins the drift-tolerance arithmetic.
func TestObsTableValidate(t *testing.T) {
	o := newObsTable(2)
	if o.validate(100) {
		t.Fatal("fresh table claims usable data")
	}
	o.stages[0].in.Store(10)
	o.stages[0].out.Store(20)
	o.stages[0].runs.Store(1)
	if !o.validate(100) {
		t.Fatal("table with data reports none")
	}
	// Within tolerance: 100/8 + 8 = 20 links of drift.
	if !o.validate(120) {
		t.Fatal("drift of 20 on 100 links invalidated the table")
	}
	if got := o.Epoch(); got != 0 {
		t.Fatalf("epoch = %d, want 0", got)
	}
	// Past tolerance: reset + epoch bump.
	if o.validate(130) {
		t.Fatal("drift of 30 on 100 links kept stale data")
	}
	if got := o.Epoch(); got != 1 {
		t.Fatalf("epoch = %d, want 1", got)
	}
	if o.stages[0].runs.Load() != 0 {
		t.Fatal("reset left stage counters behind")
	}
	if o.validate(130) {
		t.Fatal("emptied table claims usable data")
	}
}
