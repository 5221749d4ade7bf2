package federation

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

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
// ranker's starting point: a plan executes the order the plan-time
// planner used to compile from static estimates — the one frozen in
// testdata/golden — and so does the same plan from the cache, however
// often it has run.
func TestFreshPlanRunsPlanTimeOrder(t *testing.T) {
	f, _, query := skewedWorld(t)
	q, err := sparql.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	p := f.planQuery(q, nil)
	fed, traces := traceOf(f)
	rs, err := fed.evalPlan(context.Background(), time.Time{}, p, nil, new(Scratch))
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
	fed.SetPlanCache(NewPlanCache(4))
	for i := 0; i < 3; i++ {
		if _, err := fed.Query(query); err != nil {
			t.Fatal(err)
		}
	}
	for i, order := range (*traces)[1:] {
		if !reflect.DeepEqual(order, (*traces)[0]) {
			t.Fatalf("cached run %d executed %v, the fresh plan %v", i, order, (*traces)[0])
		}
	}
}

// TestSinglePatternGroupObservesNothing: bench/e2e's lookup text is one
// pattern, so there is no order to choose — its evaluation ranks
// nothing, and a warm evaluation allocates exactly what it did before
// the stage loop ranked anything, less the two the decoded
// sparql.Result cost before Finalize stopped at ID rows and the closure
// a stage handed to the row fan-out (26 at ba58ad9 with this test's
// body), less the per-source availability state every evaluation set up
// until sources stopped being probed (23 then, 21 after), less the
// starting row's provenance slot, which lives in the evaluation state
// since plans are keyed by shape (20), and less all the evaluation's
// own memory, which a Scratch recycles (8: what is left is the decoded
// ResultSet, its rows, binding and link set).
func TestSinglePatternGroupObservesNothing(t *testing.T) {
	f, _ := joinShapeWorld(t, 0.1)
	fed := copyOf(f)
	fed.SetPlanCache(NewPlanCache(4))
	query := "SELECT ?n WHERE { <http://ds1.example.org/resource/E0> <" + synth.P2Name.Value + "> ?n . }"
	// joinShapeWorld ran the join shapes through the same counter.
	replans0 := fed.AdaptiveStats()
	// One row across one link; also warms the plan cache and sc.
	sc := new(Scratch)
	if rs := decodeIn(t, fed, sc, query); len(rs.Rows) != 1 || rs.Rows[0].Used.Len() != 1 {
		t.Fatalf("rows %v; want one row across one link", rs)
	}
	allocs := testing.AllocsPerRun(100, func() { decodeIn(t, fed, sc, query) })
	if allocs != 8 {
		t.Errorf("a warm lookup allocates %v times, want 8", allocs)
	}
	if replans := fed.AdaptiveStats(); replans != replans0 {
		t.Errorf("lookups counted %d rankings, want none", replans-replans0)
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

// TestReplanDeterminism: same query + same observations ⇒ identical
// executed order, across repetitions, with no wall-clock dependence.
// Each case plans afresh, puts the observations into the evaluation's
// own row counts, as earlier entries of a re-entered group would have,
// runs the pattern tree once and compares the executed order against
// the expectation and against every other repetition.
func TestReplanDeterminism(t *testing.T) {
	f, _, query := skewedWorld(t)
	q, err := sparql.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		seen map[int]stageCount // by stage id
		want [][]int
	}{
		{
			name: "no-observations-reproduces-static-plan",
			want: [][]int{{0, 1, 2}},
		},
		{
			name: "fanout-observed-hoists-type-filter",
			seen: map[int]stageCount{
				1: {in: 100, out: 800, runs: 1}, // connectedWith expands 8x per row
				2: {in: 800, out: 80, runs: 1},  // type filter keeps 1 in 10
			},
			want: [][]int{{0, 2, 1}},
		},
		{
			name: "cheap-fanout-observed-keeps-static-order",
			seen: map[int]stageCount{
				1: {in: 100, out: 10, runs: 1},
				2: {in: 10, out: 80, runs: 1},
			},
			want: [][]int{{0, 1, 2}},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for rep := 0; rep < 20; rep++ {
				p := f.planQuery(q, nil)
				fed, traces := traceOf(f)
				ec := &new(Scratch).ec
				start := ec.begin(context.Background(), time.Time{}, p)
				for sid, c := range tc.seen {
					ec.stats[sid] = c
				}
				fed.evalGroup(ec, p.root, start)
				if !reflect.DeepEqual(*traces, tc.want) {
					t.Fatalf("rep %d: executed %v, want %v", rep, *traces, tc.want)
				}
			}
		})
	}
}
