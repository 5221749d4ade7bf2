package federation

import (
	"context"
	"testing"

	"alex/internal/links"
	"alex/internal/rdf"
	"alex/internal/sparql"
)

// TestOptionalUnboundProvenanceDistinct is the end-to-end regression:
// an OPTIONAL leaves ?name unbound for one solution and binds it (via
// a sameAs-crossing match carrying provenance) for another. The two
// solutions project onto different keys, so the unbound row must stay
// provenance-free instead of inheriting the other row's link.
func TestOptionalUnboundProvenanceDistinct(t *testing.T) {
	d := rdf.NewDict()
	kb := rdf.NewGraphWithDict(d)
	news := rdf.NewGraphWithDict(d)

	e1 := rdf.IRI("http://kb/e1")
	e2 := rdf.IRI("http://kb/e2")
	n1 := rdf.IRI("http://news/n1")
	kb.Insert(rdf.Triple{S: e1, P: rdf.IRI("http://kb/award"), O: rdf.Literal("A")})
	kb.Insert(rdf.Triple{S: e2, P: rdf.IRI("http://kb/award"), O: rdf.Literal("B")})
	// The empty literal name is reachable only across the sameAs link.
	news.Insert(rdf.Triple{S: n1, P: rdf.IRI("http://news/name"), O: rdf.Literal("")})

	f := New(d)
	if err := f.AddSource("kb", kb); err != nil {
		t.Fatal(err)
	}
	if err := f.AddSource("news", news); err != nil {
		t.Fatal(err)
	}
	e1ID, _ := d.Lookup(e1)
	n1ID, _ := d.Lookup(n1)
	link := links.Link{E1: e1ID, E2: n1ID}
	f.SetLinks(links.NewSet(link))

	res, err := f.Query(`SELECT ?name WHERE {
		?p <http://kb/award> ?a .
		OPTIONAL { ?p <http://news/name> ?name . }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	var sawBound, sawUnbound bool
	for _, r := range res.Rows {
		if name, ok := r.Binding["name"]; ok {
			sawBound = true
			if name.Value != "" {
				t.Fatalf("bound name = %q, want empty literal", name.Value)
			}
			if !r.Used.Has(link) {
				t.Error("empty-literal row lost its link provenance")
			}
		} else {
			sawUnbound = true
			if r.Used.Len() != 0 {
				t.Errorf("unbound row inherited provenance %v", r.Used.Slice())
			}
		}
	}
	if !sawBound || !sawUnbound {
		t.Fatalf("expected one bound-empty and one unbound row, got bound=%v unbound=%v", sawBound, sawUnbound)
	}

	// Two solutions whose rendered terms concatenate to the same bytes
	// around a NUL (an IRI may contain one): {a: <x>.<y>, b: <z>} and
	// {a: <x>, b: <y>.<z>}, "." standing for NUL. Only the first crosses
	// the link. A provenance key built by joining renderings with a
	// separator merged them; a fixed-width ID tuple cannot.
	left, right := rdf.IRI("http://kb/left"), rdf.IRI("http://news/right")
	kb.Insert(rdf.Triple{S: e1, P: left, O: rdf.IRI("x>\x00<y")})
	kb.Insert(rdf.Triple{S: e2, P: left, O: rdf.IRI("x")})
	news.Insert(rdf.Triple{S: n1, P: right, O: rdf.IRI("z")})
	news.Insert(rdf.Triple{S: e2, P: right, O: rdf.IRI("y>\x00<z")})
	f = New(d) // re-register: the source-selection index predates the new predicates
	if err := f.AddSource("kb", kb); err != nil {
		t.Fatal(err)
	}
	if err := f.AddSource("news", news); err != nil {
		t.Fatal(err)
	}
	f.SetLinks(links.NewSet(link))
	res, err = f.Query(`SELECT ?a ?b WHERE {
		?p <http://kb/left> ?a .
		?p <http://news/right> ?b .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("NUL-split rows = %d, want 2", len(res.Rows))
	}
	for _, r := range res.Rows {
		crossed := r.Binding["b"] == rdf.IRI("z")
		if crossed != r.Used.Has(link) || r.Used.Len() > 1 {
			t.Errorf("row %v carries provenance %v; only the <z> row crossed the link", r.Binding, r.Used.Slice())
		}
	}
}

// --- join ordering (tentpole layer 1) ---

// planOrder returns the order a fresh plan of query executes its
// top-level group in: the ranker's choice from static estimates alone.
func planOrder(f *Federator, query string) []int {
	q, err := sparql.Parse(query)
	if err != nil {
		panic(err)
	}
	fed, traces := traceOf(f)
	if _, err := fed.EvalContext(context.Background(), q); err != nil {
		panic(err)
	}
	return (*traces)[0] // the root group's patterns run before its nested groups
}

func TestReorderHoistsSelectivePattern(t *testing.T) {
	d := rdf.NewDict()
	g := rdf.NewGraphWithDict(d)
	for i := 0; i < 100; i++ {
		s := rdf.IRI("http://x/e" + string(rune('A'+i%26)) + string(rune('0'+i/26)))
		g.Insert(rdf.Triple{S: s, P: rdf.IRI("http://x/label"), O: rdf.Literal("l")})
	}
	g.Insert(rdf.Triple{S: rdf.IRI("http://x/eA0"), P: rdf.IRI("http://x/rare"), O: rdf.Literal("k")})

	f := New(d)
	if err := f.AddSource("g", g); err != nil {
		t.Fatal(err)
	}
	f.SetLinks(links.NewSet())

	// Written order starts with the unselective label scan; the planner
	// must run the rare pattern first (both bind ?e for the first time,
	// but the rare pattern is written later... it may still go first
	// only if it does not steal ?e's first binding — and it would, so
	// binding safety forces label first. Use a second variable instead.
	order := planOrder(f, `SELECT ?e ?v WHERE {
		?e <http://x/label> ?v .
		?e <http://x/rare> "k" .
	}`)
	// Pattern 1 shares only ?e with pattern 0 and ?e's first binder is
	// pattern 0... but pattern 1 also binds ?e. Binding safety says
	// pattern 1 may not run while pattern 0 is unscheduled. So the
	// order must be the written one here.
	if order[0] != 0 {
		t.Fatalf("order = %v, binding safety requires the written binder of ?e first", order)
	}

	// With ?e pre-bound by a shared selective pattern, the planner is
	// free to order the remaining two by cost: rare (1 match) before
	// label (100 matches), inverting the written order.
	order = planOrder(f, `SELECT ?e ?v WHERE {
		?e <http://x/rare> "k" .
		?e <http://x/label> ?v .
		?e <http://x/rare> ?k2 .
	}`)
	if order[0] != 0 {
		t.Fatalf("order = %v, want rare-constant pattern first", order)
	}
	if order[1] != 2 {
		t.Fatalf("order = %v, want rare ?k2 pattern (1 match) hoisted before label (100 matches)", order)
	}
}

// TestReorderIsDeterministic plans the same query repeatedly and
// requires identical orders: estimates are map-free arithmetic and
// ties break on written position, so nothing may wobble.
func TestReorderIsDeterministic(t *testing.T) {
	f, _, _ := newsWorld(t)
	q := `SELECT ?p ?name ?article WHERE {
		?p <http://kb/name> ?name .
		?article <http://news/about> ?p .
		?p <http://kb/award> ?a .
	}`
	first := planOrder(f, q)
	for i := 0; i < 20; i++ {
		again := planOrder(f, q)
		if len(again) != len(first) {
			t.Fatalf("order length changed: %v vs %v", first, again)
		}
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("order changed across plans: %v vs %v", first, again)
			}
		}
	}
}

// --- source selection × reordering (satellite d) ---

// TestUnboundPredicateVisitsAllSourcesUnderReordering joins an
// unbound-predicate pattern with a selective one. However the planner
// orders them, the unbound-predicate pattern must still visit every
// source; that the rows are the frozen ones, cold, cached and recached,
// is the golden harness's "unbound-predicate-reordered" case.
func TestUnboundPredicateVisitsAllSourcesUnderReordering(t *testing.T) {
	f, _ := chainWorld(t)
	rs, err := f.Query(goldenChainQueries()["unbound-predicate-reordered"])
	if err != nil {
		t.Fatal(err)
	}
	// The entity participates in all three sources via the link
	// chain: the unbound-predicate scan must surface a row from each.
	preds := map[string]bool{}
	for _, r := range rs.Rows {
		preds[r.Binding["rel"].Value] = true
	}
	for _, want := range []string{"http://a/name", "http://b/label", "http://c/price"} {
		if !preds[want] {
			t.Fatalf("rows missing predicate %s: %v", want, preds)
		}
	}
}

// --- LinkCount (satellite b) ---

func TestLinkCountO1AcrossSnapshots(t *testing.T) {
	f, _, _ := newsWorld(t)
	if f.LinkCount() != 1 {
		t.Fatalf("LinkCount = %d, want 1", f.LinkCount())
	}
	big := links.NewSet()
	for i := 0; i < 100; i++ {
		big.Add(links.Link{E1: rdf.ID(1000 + i), E2: rdf.ID(2000 + i)})
	}
	snap := f.WithLinks(big)
	if snap.LinkCount() != 100 {
		t.Fatalf("snapshot LinkCount = %d, want 100", snap.LinkCount())
	}
	if f.LinkCount() != 1 {
		t.Fatalf("base LinkCount changed to %d", f.LinkCount())
	}
	f.SetLinks(links.NewSet())
	if f.LinkCount() != 0 {
		t.Fatalf("LinkCount after clearing = %d, want 0", f.LinkCount())
	}
}
