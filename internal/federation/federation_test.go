package federation

import (
	"slices"
	"testing"

	"alex/internal/links"
	"alex/internal/rdf"
	"alex/internal/synth"
)

// newsWorld builds the paper's motivating scenario (§1): a knowledge
// base with facts about people, and a news archive with articles about
// (its own IRIs for) the same people, joined by sameAs links.
func newsWorld(t *testing.T) (*Federator, *rdf.Dict, links.Link) {
	t.Helper()
	d := rdf.NewDict()
	kb := rdf.NewGraphWithDict(d)
	news := rdf.NewGraphWithDict(d)

	lebronKB := rdf.IRI("http://kb/LeBron_James")
	kb.Insert(rdf.Triple{S: lebronKB, P: rdf.IRI("http://kb/award"), O: rdf.Literal("NBA MVP 2013")})
	kb.Insert(rdf.Triple{S: lebronKB, P: rdf.IRI("http://kb/name"), O: rdf.Literal("LeBron James")})
	duncanKB := rdf.IRI("http://kb/Tim_Duncan")
	kb.Insert(rdf.Triple{S: duncanKB, P: rdf.IRI("http://kb/award"), O: rdf.Literal("NBA MVP 2003")})

	lebronNews := rdf.IRI("http://news/people/lebron-james")
	news.Insert(rdf.Triple{S: rdf.IRI("http://news/a1"), P: rdf.IRI("http://news/about"), O: lebronNews})
	news.Insert(rdf.Triple{S: rdf.IRI("http://news/a2"), P: rdf.IRI("http://news/about"), O: lebronNews})
	news.Insert(rdf.Triple{S: rdf.IRI("http://news/a3"), P: rdf.IRI("http://news/about"), O: rdf.IRI("http://news/people/someone-else")})

	f := New(d)
	if err := f.AddSource("kb", kb); err != nil {
		t.Fatal(err)
	}
	if err := f.AddSource("news", news); err != nil {
		t.Fatal(err)
	}
	kbID, _ := d.Lookup(lebronKB)
	newsID, _ := d.Lookup(lebronNews)
	link := links.Link{E1: kbID, E2: newsID}
	f.SetLinks(links.NewSet(link))
	return f, d, link
}

func TestFederatedJoinAcrossSameAs(t *testing.T) {
	f, _, link := newsWorld(t)
	res, err := f.Query(`SELECT ?article WHERE {
		?p <http://kb/award> "NBA MVP 2013" .
		?article <http://news/about> ?p .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 articles", len(res.Rows))
	}
	for _, r := range res.Rows {
		if !r.Used.Has(link) {
			t.Fatalf("row %v missing link provenance", r.Binding)
		}
	}
}

func TestSingleSourceAnswerHasNoProvenance(t *testing.T) {
	f, _, _ := newsWorld(t)
	res, err := f.Query(`SELECT ?p WHERE { ?p <http://kb/award> "NBA MVP 2013" . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0].Used.Len() != 0 {
		t.Fatalf("single-source answer recorded %d links", res.Rows[0].Used.Len())
	}
}

func TestNoLinksNoJoin(t *testing.T) {
	f, _, _ := newsWorld(t)
	f.SetLinks(links.NewSet()) // drop all links
	res, err := f.Query(`SELECT ?article WHERE {
		?p <http://kb/award> "NBA MVP 2013" .
		?article <http://news/about> ?p .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %d, want 0 without links", len(res.Rows))
	}
}

func TestLinkCount(t *testing.T) {
	f, _, _ := newsWorld(t)
	if f.LinkCount() != 1 {
		t.Fatalf("LinkCount = %d", f.LinkCount())
	}
}

// TestSameAsIndexMatchesLinkSet holds the dense sameAs index to the map
// by endpoint it replaced: every ID's edges, in the same order — the
// order rows and provenance come out in — over the news world with a
// literal endpoint added and over a synth profile linked two ways per
// entity. rdf.NoID, a literal, an ID past the table, an ID interned
// after the snapshot was taken and an empty link set have no edges.
func TestSameAsIndexMatchesLinkSet(t *testing.T) {
	byEndpoint := func(d *rdf.Dict, ls links.Set) map[rdf.ID][]edge {
		m := make(map[rdf.ID][]edge)
		for _, l := range ls.Slice() {
			if l.E1 != rdf.NoID && int(l.E1) <= d.Len() && d.Term(l.E1).IsIRI() {
				m[l.E1] = append(m[l.E1], edge{other: l.E2, link: l})
			}
			if l.E2 != rdf.NoID && int(l.E2) <= d.Len() && d.Term(l.E2).IsIRI() {
				m[l.E2] = append(m[l.E2], edge{other: l.E1, link: l})
			}
		}
		return m
	}
	check := func(t *testing.T, f *Federator, ls links.Set) *Federator {
		t.Helper()
		snap := f.WithLinks(ls)
		want := byEndpoint(f.dict, ls)
		for id := rdf.NoID; int(id) <= f.dict.Len()+1; id++ {
			if got := snap.same.of(id); !slices.Equal(got, want[id]) {
				t.Fatalf("ID %d: edges %v, want %v", id, got, want[id])
			}
		}
		if got := snap.same.of(rdf.ID(f.dict.Len() + 1000)); len(got) != 0 {
			t.Fatalf("an ID past the table has edges %v", got)
		}
		return snap
	}

	t.Run("news", func(t *testing.T) {
		f, d, link := newsWorld(t)
		name, _ := d.Lookup(rdf.Literal("LeBron James"))
		toLiteral := links.Link{E1: link.E1, E2: name}
		snap := check(t, f, links.NewSet(link, toLiteral))
		if got := snap.same.of(name); len(got) != 0 {
			t.Fatalf("literal endpoint has edges %v", got)
		}
		if got := snap.same.of(link.E1); len(got) != 2 {
			t.Fatalf("IRI endpoint has %d edges, want its link and the one to a literal", len(got))
		}

		late := rdf.IRI("http://news/people/late")
		lateID := d.Intern(late)
		if got := snap.same.of(lateID); len(got) != 0 {
			t.Fatalf("an ID interned after the snapshot has edges %v", got)
		}
		res, err := snap.Query("SELECT ?p ?o WHERE { " + late.String() + " ?p ?o . }")
		if err != nil || len(res.Rows) != 0 {
			t.Fatalf("query on an ID interned after the snapshot: rows %v, err %v", res, err)
		}

		empty := check(t, f, links.NewSet())
		if len(empty.same.edges) != 0 {
			t.Fatalf("empty link set has %d edges", len(empty.same.edges))
		}
		if got := New(d).same.of(link.E1); len(got) != 0 {
			t.Fatalf("a federator without links has edges %v", got)
		}
	})

	t.Run("synth", func(t *testing.T) {
		prof, _ := synth.ProfileByName("dbpedia-nytimes")
		ds := synth.Generate(prof.Scale(0.1))
		f := New(ds.Dict)
		gt := ds.GroundTruth.Slice()
		ls := links.NewSet(gt...)
		// A second link per entity, so every endpoint has two edges and
		// their order is something to get wrong.
		for k, l := range gt {
			ls.Add(links.Link{E1: l.E1, E2: gt[(k+1)%len(gt)].E2})
		}
		check(t, f, ls)
	})
}

type sinkRecorder struct {
	got map[links.Link]bool
}

func (s *sinkRecorder) Feedback(l links.Link, positive bool) {
	if s.got == nil {
		s.got = map[links.Link]bool{}
	}
	s.got[l] = positive
}

func TestApproveRejectRouteToLinks(t *testing.T) {
	f, _, link := newsWorld(t)
	res, err := f.Query(`SELECT ?article WHERE {
		?p <http://kb/award> "NBA MVP 2013" .
		?article <http://news/about> ?p .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	var sink sinkRecorder
	Approve(res.Rows[0], &sink)
	if v, ok := sink.got[link]; !ok || !v {
		t.Fatalf("approve did not reach the link: %+v", sink.got)
	}
	Reject(res.Rows[1], &sink)
	if v := sink.got[link]; v {
		t.Fatalf("reject did not flip the link feedback")
	}
}

// chainWorld builds a three-source chain: a drug catalogue (A), a label
// registry (B) and a price list (C), with each source using its own IRI
// for the same drug. The links form a chain a1 <-> b1 <-> c1, so an
// answer that combines all three sources traverses two distinct sameAs
// links.
func chainWorld(t *testing.T) (f *Federator, chain [2]links.Link) {
	t.Helper()
	d := rdf.NewDict()
	a := rdf.NewGraphWithDict(d)
	b := rdf.NewGraphWithDict(d)
	c := rdf.NewGraphWithDict(d)

	a1 := rdf.IRI("http://a/drug/1")
	b1 := rdf.IRI("http://b/substance/one")
	c1 := rdf.IRI("http://c/product/0001")
	a.Insert(rdf.Triple{S: a1, P: rdf.IRI("http://a/name"), O: rdf.Literal("acetylsalicylic acid")})
	b.Insert(rdf.Triple{S: b1, P: rdf.IRI("http://b/label"), O: rdf.Literal("Aspirin")})
	c.Insert(rdf.Triple{S: c1, P: rdf.IRI("http://c/price"), O: rdf.Literal("5")})
	// A decoy in C that must not join.
	c.Insert(rdf.Triple{S: rdf.IRI("http://c/product/0002"), P: rdf.IRI("http://c/price"), O: rdf.Literal("9")})

	f = New(d)
	for _, src := range []struct {
		name string
		g    *rdf.Graph
	}{{"a", a}, {"b", b}, {"c", c}} {
		if err := f.AddSource(src.name, src.g); err != nil {
			t.Fatal(err)
		}
	}
	aID, _ := d.Lookup(a1)
	bID, _ := d.Lookup(b1)
	cID, _ := d.Lookup(c1)
	chain[0] = links.Link{E1: aID, E2: bID}
	chain[1] = links.Link{E1: bID, E2: cID}
	f.SetLinks(links.NewSet(chain[0], chain[1]))
	return f, chain
}

func TestMultiHopJoinUsesEveryChainLink(t *testing.T) {
	f, chain := chainWorld(t)
	res, err := f.Query(`SELECT ?name ?price WHERE {
		?p <http://b/label> "Aspirin" .
		?p <http://a/name> ?name .
		?p <http://c/price> ?price .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	row := res.Rows[0]
	if got := row.Binding["price"]; got != rdf.Literal("5") {
		t.Fatalf("price = %v, decoy joined?", got)
	}
	if row.Used.Len() != 2 {
		t.Fatalf("row used %d links, want both chain links", row.Used.Len())
	}
	for i, l := range chain {
		if !row.Used.Has(l) {
			t.Fatalf("provenance missing chain link %d (%v)", i, l)
		}
	}
}

func TestMultiHopFeedbackReachesEveryLink(t *testing.T) {
	f, chain := chainWorld(t)
	res, err := f.Query(`SELECT ?name ?price WHERE {
		?p <http://b/label> "Aspirin" .
		?p <http://a/name> ?name .
		?p <http://c/price> ?price .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	var approved sinkRecorder
	Approve(res.Rows[0], &approved)
	if len(approved.got) != 2 {
		t.Fatalf("approve reached %d links, want 2: %+v", len(approved.got), approved.got)
	}
	for i, l := range chain {
		if v, ok := approved.got[l]; !ok || !v {
			t.Fatalf("approve skipped chain link %d", i)
		}
	}
	var rejected sinkRecorder
	Reject(res.Rows[0], &rejected)
	if len(rejected.got) != 2 {
		t.Fatalf("reject reached %d links, want 2: %+v", len(rejected.got), rejected.got)
	}
	for i, l := range chain {
		if v, ok := rejected.got[l]; !ok || v {
			t.Fatalf("reject skipped chain link %d", i)
		}
	}
}

func TestWithLinksSnapshotIndependence(t *testing.T) {
	f, chain := chainWorld(t)
	snap := f.WithLinks(links.NewSet(chain[0], chain[1]))
	// Mutating the original must not affect the snapshot.
	f.SetLinks(links.NewSet())
	if snap.LinkCount() != 2 {
		t.Fatalf("snapshot LinkCount = %d after SetLinks on origin", snap.LinkCount())
	}
	res, err := snap.Query(`SELECT ?price WHERE {
		?p <http://b/label> "Aspirin" .
		?p <http://c/price> ?price .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("snapshot rows = %d, want 1", len(res.Rows))
	}
}

func TestAddSourceRejectsForeignDict(t *testing.T) {
	f, _, _ := newsWorld(t)
	other := rdf.NewGraph()
	if err := f.AddSource("bad", other); err == nil {
		t.Fatal("foreign dictionary accepted")
	}
}

func TestQueryNoSources(t *testing.T) {
	f := New(rdf.NewDict())
	if _, err := f.Query(`SELECT ?x WHERE { ?x <http://p> ?y . }`); err == nil {
		t.Fatal("query over empty federation succeeded")
	}
}

func TestFederatedFilterAndModifiers(t *testing.T) {
	f, _, _ := newsWorld(t)
	res, err := f.Query(`SELECT ?award WHERE {
		?p <http://kb/award> ?award .
		FILTER(CONTAINS(?award, "MVP"))
	} ORDER BY ?award LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if got := res.Rows[0].Binding["award"]; got != rdf.Literal("NBA MVP 2003") {
		t.Fatalf("order/limit wrong: %v", got)
	}
}

func TestFederatedOptionalKeepsRow(t *testing.T) {
	f, _, _ := newsWorld(t)
	res, err := f.Query(`SELECT ?p ?article WHERE {
		?p <http://kb/award> ?a .
		OPTIONAL { ?article <http://news/about> ?p . }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	// LeBron matches 2 articles (via link); Duncan has none but stays.
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
}

func TestFederatedUnion(t *testing.T) {
	f, _, _ := newsWorld(t)
	res, err := f.Query(`SELECT ?p WHERE {
		{ ?p <http://kb/award> "NBA MVP 2013" . } UNION { ?p <http://kb/award> "NBA MVP 2003" . }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestDistinctMergesProvenance(t *testing.T) {
	f, _, link := newsWorld(t)
	// DISTINCT ?p collapses the two article rows into one; provenance
	// of the collapsed row must still contain the link.
	res, err := f.Query(`SELECT DISTINCT ?p WHERE {
		?p <http://kb/award> "NBA MVP 2013" .
		?article <http://news/about> ?p .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if !res.Rows[0].Used.Has(link) {
		t.Fatal("provenance lost through DISTINCT")
	}
}

func TestSourceSelection(t *testing.T) {
	f, _, _ := newsWorld(t)
	// kb/award exists only in the kb source.
	awardID, ok := func() (rdf.ID, bool) {
		return f.Sources()[0].Graph.Dict().Lookup(rdf.IRI("http://kb/award"))
	}()
	if !ok {
		t.Fatal("award predicate missing")
	}
	srcs := f.predSources[awardID]
	if len(srcs) != 1 || srcs[0] != 0 {
		t.Fatalf("source selection for kb/award = %v, want [0]", srcs)
	}
	// Unknown predicate: zero sources, so the query returns nothing
	// rather than scanning everything.
	res, err := f.Query(`SELECT ?x WHERE { ?x <http://never/seen> ?y . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestFederatedAsk(t *testing.T) {
	f, _, _ := newsWorld(t)
	res, err := f.Query(`ASK {
		?p <http://kb/award> "NBA MVP 2013" .
		?article <http://news/about> ?p .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ask {
		t.Fatal("federated ASK = false, want true")
	}
	f.SetLinks(links.NewSet())
	res, err = f.Query(`ASK {
		?p <http://kb/award> "NBA MVP 2013" .
		?article <http://news/about> ?p .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ask {
		t.Fatal("federated ASK without links = true, want false")
	}
}
