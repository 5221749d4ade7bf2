package federation

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"alex/internal/links"
	"alex/internal/paris"
	"alex/internal/rdf"
	"alex/internal/synth"
)

// benchFederation builds the benchmark federation: the dbpedia-nytimes
// synth pair with ground-truth sameAs links installed, queried by a
// three-pattern join written in pessimal order (broad label scan first,
// cross-source join second, selective category constant last). The
// planner's job is to hoist the category pattern.
func benchFederation(b *testing.B) (*Federator, string) {
	b.Helper()
	prof, ok := synth.ProfileByName("dbpedia-nytimes")
	if !ok {
		b.Fatal("missing profile")
	}
	if testing.Short() {
		prof = prof.Scale(0.1)
	}
	ds := synth.Generate(prof)
	f := New(ds.Dict)
	if err := f.AddSource("ds1", ds.G1); err != nil {
		b.Fatal(err)
	}
	if err := f.AddSource("ds2", ds.G2); err != nil {
		b.Fatal(err)
	}
	f.SetLinks(ds.GroundTruth)

	// Pick the category of the first ground-truth-matched entity
	// (links.Set.Slice is sorted, and generation is seeded): a matched
	// entity always carries the ds2 attributes through its sameAs link,
	// so the selective pattern is guaranteed a non-empty join, and the
	// pick — hence the measured row count — is identical run to run.
	// The previous first-ForEachMatch pick followed map iteration
	// order, which both jittered the numbers and intermittently chose a
	// category with no cross-source rows in -short mode.
	catID, ok := ds.Dict.Lookup(synth.P1Cat)
	if !ok {
		b.Fatal("category predicate missing from dictionary")
	}
	var cat string
	first := ds.GroundTruth.Slice()[0]
	ds.G1.ForEachMatchIDs(first.E1, catID, 0, true, true, false, func(_, _, mo rdf.ID) bool {
		cat = ds.Dict.Term(mo).Value
		return false
	})
	if cat == "" {
		b.Fatal("no category value on the first matched entity")
	}
	query := fmt.Sprintf(`SELECT ?e ?n ?g ?b ?k WHERE {
		?e <http://ds1.example.org/onto/label> ?n .
		?e <http://ds2.example.org/prop/group> ?g .
		?e <http://ds2.example.org/prop/born> ?b .
		?e <http://ds2.example.org/prop/kind> ?k .
		?e <http://ds1.example.org/onto/category> %q .
	}`, cat)

	// Sanity: the query must return rows (and cross links) or the
	// numbers below measure an empty evaluation.
	rs, err := f.Query(query)
	if err != nil {
		b.Fatal(err)
	}
	if len(rs.Rows) == 0 {
		b.Fatal("benchmark query returned no rows")
	}
	return f, query
}

// joinShapeWorld builds what bench/e2e's join_disk workload queries —
// the dbpedia-opencyc synth pair at the given scale (the benchmark runs
// 0.5) with PARIS's links installed, on the mem backend — and one text
// of each of that workload's three shapes. The texts are bench/e2e's
// (ops.go, joinTexts, i = 0), copied because the benchmark is a module
// of its own:
//
//   - sel: one category's entities with label, cross-source name and
//     birth date and an OPTIONAL hometown; five patterns, few rows.
//   - filter: the shared "Thing" type joined to labels and cross-source
//     birth dates after a threshold; FILTER, ORDER BY, LIMIT.
//   - wide: every label joined to the cross-source hometown, top LIMIT
//     by a three-key ORDER BY; the shape that owns join_disk's mean.
func joinShapeWorld(tb testing.TB, scale float64) (*Federator, map[string]string) {
	tb.Helper()
	prof, ok := synth.ProfileByName("dbpedia-opencyc")
	if !ok {
		tb.Fatal("missing profile")
	}
	ds := synth.Generate(prof.Scale(scale))
	f := New(ds.Dict)
	if err := f.AddSource("ds1", ds.G1); err != nil {
		tb.Fatal(err)
	}
	if err := f.AddSource("ds2", ds.G2); err != nil {
		tb.Fatal(err)
	}
	ls := links.NewSet()
	for _, s := range paris.Link(ds.G1, ds.G2, ds.Entities1, ds.Entities2, paris.NewOptions()) {
		ls.Add(s.Link)
	}
	f.SetLinks(ls)

	// The first category and birth date present, in lexical order.
	first := func(pred rdf.Term) string {
		pid, ok := ds.Dict.Lookup(pred)
		if !ok {
			tb.Fatalf("predicate %v missing from dictionary", pred)
		}
		var vals []string
		ds.G1.ForEachMatchIDs(0, pid, 0, false, true, false, func(_, _, o rdf.ID) bool {
			vals = append(vals, ds.Dict.Term(o).Value)
			return true
		})
		sort.Strings(vals)
		return vals[0]
	}
	texts := map[string]string{
		"sel": fmt.Sprintf(
			"SELECT ?e ?l ?n ?b ?h WHERE { ?e <%s> %q . ?e <%s> ?l . ?e <%s> ?n . ?e <%s> ?b . OPTIONAL { ?e <%s> ?h . } } ORDER BY ?l ?e ?n ?b ?h",
			synth.P1Cat.Value, first(synth.P1Cat), synth.P1Label.Value, synth.P2Name.Value, synth.P2Born.Value, synth.P2Place.Value),
		"filter": fmt.Sprintf(
			"SELECT ?e ?l ?b WHERE { ?e <%s> \"Thing\" . ?e <%s> ?l . ?e <%s> ?b . FILTER(?b > \"%s\"^^<%s>) } ORDER BY ?b ?e ?l LIMIT 20",
			synth.P1Type.Value, synth.P1Label.Value, synth.P2Born.Value, first(synth.P1Birth), rdf.XSDDate),
		"wide": fmt.Sprintf(
			"SELECT ?e ?l ?h WHERE { ?e <%s> ?l . ?e <%s> ?h . } ORDER BY ?l ?e ?h LIMIT 50",
			synth.P1Label.Value, synth.P2Place.Value),
	}
	for name, q := range texts {
		rs, err := f.Query(q)
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		if len(rs.Rows) == 0 {
			tb.Fatalf("%s returned no rows", name)
		}
	}
	return f, texts
}

// BenchmarkFederatedQuery measures query latency inside the process:
//
//   - cold: parsing and planning on every call.
//   - warm: a pre-warmed plan cache, the steady state of alexd's
//     /query loop.
//   - sel, filter, wide: bench/e2e's three join_disk shapes (see
//     joinShapeWorld), two texts of each shape alternating through a
//     plan cache as that workload's walk sends them: one plan per
//     shape, each call binding its own text's constants. These rows
//     explain the end-to-end federation.query_us.{sel,filter,wide};
//     they are not a figure of their own.
//
// `make bench-query` records them as BENCH_query.json.
func BenchmarkFederatedQuery(b *testing.B) {
	f, query := benchFederation(b)

	run := func(b *testing.B, fed *Federator, queries ...string) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fed.Query(queries[i%len(queries)]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	}

	b.Run("cold", func(b *testing.B) {
		run(b, copyOf(f), query)
	})
	b.Run("warm", func(b *testing.B) {
		fed := copyOf(f)
		fed.SetPlanCache(NewPlanCache(16))
		if _, err := fed.Query(query); err != nil { // prime the cache
			b.Fatal(err)
		}
		run(b, fed, query)
	})

	scale := 0.5
	if testing.Short() {
		scale = 0.1
	}
	shapes, texts := joinShapeWorld(b, scale)
	cats := objectsOf(b, shapes, synth.P1Cat)
	siblings := map[string]string{
		"sel":    strings.Replace(texts["sel"], fmt.Sprintf("%q", cats[0]), fmt.Sprintf("%q", cats[1]), 1),
		"filter": strings.Replace(texts["filter"], "LIMIT 20", "LIMIT 21", 1),
		"wide":   strings.Replace(texts["wide"], "LIMIT 50", "LIMIT 51", 1),
	}
	for _, name := range []string{"sel", "filter", "wide"} {
		b.Run(name, func(b *testing.B) {
			fed := copyOf(shapes)
			fed.SetPlanCache(NewPlanCache(16))
			run(b, fed, texts[name], siblings[name])
		})
	}
}

// decodeIn evaluates query in sc and decodes the answer: what
// QueryContext does in a pooled Scratch, in one the caller holds, so
// that an allocation count does not depend on sync.Pool, which under
// the race detector drops a quarter of what it is handed.
func decodeIn(t testing.TB, f *Federator, sc *Scratch, query string) *ResultSet {
	a, err := f.EvaluateIn(context.Background(), time.Time{}, query, sc)
	if err != nil {
		t.Fatal(err)
	}
	return a.ResultSet()
}

// TestWideQueryAllocationsFollowSurvivors guards the row representation
// where it matters most, bench/e2e's wide shape: the label scan emits a
// row per dataset-1 entity, a few of which reach a hometown across a
// sameAs link, and LIMIT keeps five. A warm evaluation allocates for
// what it returns (bindings, provenance sets) and a fixed handful of
// result slices; its blocks, provenance chains, grouping tables and
// ORDER BY cells are recycled, so nothing is allocated per
// intermediate or joined row. A map per row, a decoded term per row
// or a heap provenance node per joined row fails the bound.
func TestWideQueryAllocationsFollowSurvivors(t *testing.T) {
	f, texts := joinShapeWorld(t, 0.1)
	fed := copyOf(f)
	fed.SetPlanCache(NewPlanCache(4))

	all, err := fed.Query(strings.Replace(texts["wide"], "LIMIT 50", "", 1))
	if err != nil {
		t.Fatal(err)
	}
	label, _ := f.dict.Lookup(synth.P1Label)
	scanned := f.sources[0].Graph.CountMatch(0, label, 0, false, true, false)
	crossed := len(all.Rows)
	const survivors = 5
	if crossed <= survivors || scanned < 5*crossed {
		t.Fatalf("world changed shape (%d labels, %d joined rows); the bound below proves nothing", scanned, crossed)
	}

	query := strings.Replace(texts["wide"], "LIMIT 50", fmt.Sprintf("LIMIT %d", survivors), 1)
	sc := new(Scratch)
	if rs := decodeIn(t, fed, sc, query); len(rs.Rows) != survivors { // also warms the plan cache and sc
		t.Fatalf("rows %v", rs)
	}
	allocs := testing.AllocsPerRun(20, func() { decodeIn(t, fed, sc, query) })
	// 4 per returned row: its binding and provenance set, a map header
	// and a bucket each. 4 fixed: the ResultSet, its Vars, rows and sets.
	bound := float64(4*survivors + 4)
	if bound >= float64(crossed) {
		t.Fatalf("bound %v is not below the %d joined rows; it would pass a per-row allocation", bound, crossed)
	}
	if allocs > bound {
		t.Errorf("%v allocations for %d scanned rows, %d joined, %d returned; bound %v", allocs, scanned, crossed, survivors, bound)
	}
}

// TestScanStageSizedBeforeItFills: a stage that scans from the one
// starting row counts its rows before it runs, and makes its block once
// at that size. So a query whose first stage scans n labels and whose
// second keeps one row allocates the same for n = 100 and n = 10 000;
// a block grown by append reallocates a number of times that grows
// with n. Each evaluation runs in a fresh Scratch (Evaluate), where no
// block is left over from the last.
func TestScanStageSizedBeforeItFills(t *testing.T) {
	const query = `SELECT ?e ?l WHERE { ?e <http://x/label> ?l . ?e <http://x/kind> "first" . }`
	allocs := func(n int) float64 {
		d := rdf.NewDict()
		g := rdf.NewGraphWithDict(d)
		for i := 0; i < n; i++ {
			g.Insert(rdf.Triple{S: rdf.IRI(fmt.Sprintf("http://x/e%d", i)), P: rdf.IRI("http://x/label"), O: rdf.Literal(fmt.Sprint(i))})
		}
		g.Insert(rdf.Triple{S: rdf.IRI("http://x/e0"), P: rdf.IRI("http://x/kind"), O: rdf.Literal("first")})
		f := New(d)
		if err := f.AddSource("x", g); err != nil {
			t.Fatal(err)
		}
		f.SetPlanCache(NewPlanCache(1))
		// The label pattern binds ?e first, so it runs first whatever it
		// costs; this also warms the plan cache.
		if rs, err := f.Query(query); err != nil || len(rs.Rows) != 1 {
			t.Fatalf("n=%d: rows %v, err %v; want one", n, rs, err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := f.Evaluate(context.Background(), query); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(100), allocs(10_000); small != large {
		t.Errorf("scanning 100 rows allocates %v times, 10 000 rows %v", small, large)
	}
}
