package federation

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"alex/internal/links"
	"alex/internal/rdf"
	"alex/internal/sparql"
)

func TestPlanCacheHitMissCounters(t *testing.T) {
	f, _, _ := newsWorld(t)
	pc := NewPlanCache(8)
	f.SetPlanCache(pc)

	q := `SELECT ?p WHERE { ?p <http://kb/award> "NBA MVP 2013" . }`
	for i := 0; i < 3; i++ {
		if _, err := f.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := pc.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 2/1", hits, misses)
	}
	if pc.Len() != 1 {
		t.Fatalf("Len = %d, want 1", pc.Len())
	}
	if h, m := f.PlanCacheStats(); h != hits || m != misses {
		t.Fatalf("PlanCacheStats = %d/%d, want %d/%d", h, m, hits, misses)
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	f, _, _ := newsWorld(t)
	pc := NewPlanCache(2)
	f.SetPlanCache(pc)

	qa := `SELECT ?p WHERE { ?p <http://kb/award> "NBA MVP 2013" . }`
	qb := `SELECT ?p WHERE { ?p <http://kb/award> "NBA MVP 2003" . }`
	qc := `SELECT ?p ?n WHERE { ?p <http://kb/name> ?n . }`
	for _, q := range []string{qa, qb} {
		if _, err := f.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	// Touch qa so qb becomes least recently used, then insert qc.
	if _, err := f.Query(qa); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Query(qc); err != nil {
		t.Fatal(err)
	}
	if pc.Len() != 2 {
		t.Fatalf("Len = %d, want capacity 2", pc.Len())
	}
	if ev := pc.Evictions(); ev != 1 {
		t.Fatalf("Evictions = %d, want 1 (qb pushed out by qc)", ev)
	}
	_, missesBefore := pc.Stats()
	if _, err := f.Query(qa); err != nil { // still cached
		t.Fatal(err)
	}
	if _, misses := pc.Stats(); misses != missesBefore {
		t.Fatalf("recently-used plan was evicted (misses %d -> %d)", missesBefore, misses)
	}
	if _, err := f.Query(qb); err != nil { // evicted, re-planned
		t.Fatal(err)
	}
	if _, misses := pc.Stats(); misses != missesBefore+1 {
		t.Fatalf("LRU plan not evicted (misses %d -> %d)", missesBefore, misses)
	}
	if ev := pc.Evictions(); ev != 2 {
		t.Fatalf("Evictions = %d, want 2 (re-planning qb evicted another entry)", ev)
	}
}

func TestPlanCacheParseErrorsNotCached(t *testing.T) {
	f, _, _ := newsWorld(t)
	pc := NewPlanCache(8)
	f.SetPlanCache(pc)

	if _, err := f.Query(`SELECT WHERE {`); err == nil {
		t.Fatal("malformed query did not error")
	}
	if pc.Len() != 0 {
		t.Fatalf("parse failure was cached (Len = %d)", pc.Len())
	}
}

// TestPlanCacheSharedAcrossSnapshots proves the cache-across-snapshots
// contract: a plan compiled under one link set is reused by WithLinks
// snapshots with different links, and still yields each snapshot's own
// correct answers and provenance — plans are link-independent.
func TestPlanCacheSharedAcrossSnapshots(t *testing.T) {
	f, _, link := newsWorld(t)
	pc := NewPlanCache(8)
	f.SetPlanCache(pc)
	q := `SELECT ?article WHERE {
		?p <http://kb/award> "NBA MVP 2013" .
		?article <http://news/about> ?p .
	}`

	withLink := f.WithLinks(links.NewSet(link))
	rs, err := withLink.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Fatalf("linked snapshot rows = %d, want 2", len(rs.Rows))
	}

	empty := f.WithLinks(links.NewSet())
	rs, err = empty.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 0 {
		t.Fatalf("linkless snapshot rows = %d, want 0 (stale plan leaked links?)", len(rs.Rows))
	}

	hits, misses := pc.Stats()
	if misses != 1 || hits != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1 (one plan shared by both snapshots)", hits, misses)
	}

	// And back again: the same cached plan serves the re-linked view.
	rs, err = f.WithLinks(links.NewSet(link)).Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 || !rs.Rows[0].Used.Has(link) {
		t.Fatalf("re-linked snapshot lost rows or provenance")
	}
}

func TestPlanCacheConcurrentQueries(t *testing.T) {
	f, _, _ := newsWorld(t)
	pc := NewPlanCache(4)
	f.SetPlanCache(pc)
	snap := f.WithLinks(links.NewSet())

	queries := []string{
		`SELECT ?p WHERE { ?p <http://kb/award> "NBA MVP 2013" . }`,
		`SELECT ?p ?n WHERE { ?p <http://kb/name> ?n . }`,
		`SELECT ?a WHERE { ?a <http://news/about> ?x . }`,
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := snap.Query(queries[(w+i)%len(queries)]); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	hits, misses := pc.Stats()
	if hits+misses != 8*25 {
		t.Fatalf("hits+misses = %d, want %d", hits+misses, 8*25)
	}
	if pc.Len() != len(queries) {
		t.Fatalf("Len = %d, want %d", pc.Len(), len(queries))
	}
}

func TestPlanCacheDefaultCapacity(t *testing.T) {
	if got := NewPlanCache(0).capacity; got != DefaultPlanCacheSize {
		t.Fatalf("capacity = %d, want default %d", got, DefaultPlanCacheSize)
	}
	if got := NewPlanCache(-3).capacity; got != DefaultPlanCacheSize {
		t.Fatalf("capacity = %d, want default %d", got, DefaultPlanCacheSize)
	}
}

// TestPlanCacheCapacityChurn hammers a tiny cache with more distinct
// queries than it can hold; the bound must hold throughout.
func TestPlanCacheCapacityChurn(t *testing.T) {
	f, _, _ := newsWorld(t)
	pc := NewPlanCache(3)
	f.SetPlanCache(pc)
	for i := 0; i < 20; i++ {
		q := fmt.Sprintf(`SELECT ?p WHERE { ?p <http://kb/award> "A%d" . }`, i)
		if _, err := f.Query(q); err != nil {
			t.Fatal(err)
		}
		if pc.Len() > 3 {
			t.Fatalf("cache grew past capacity: %d", pc.Len())
		}
	}
	if ev := pc.Evictions(); ev != 17 {
		t.Fatalf("Evictions = %d, want 17 (20 distinct plans through capacity 3)", ev)
	}
}

// TestCachedPlanReResolvesConstants: a plan compiled while the
// dictionary lacks one of the query's constants must not pin that miss.
// The same cached plan, asked again once the term exists and a triple
// matches it, answers with the row — in subject and in object position.
func TestCachedPlanReResolvesConstants(t *testing.T) {
	d := rdf.NewDict()
	g := rdf.NewGraphWithDict(d)
	p := rdf.IRI("http://x/p")
	g.Insert(rdf.Triple{S: rdf.IRI("http://x/early"), P: p, O: rdf.Literal("old")})
	f := New(d)
	if err := f.AddSource("g", g); err != nil {
		t.Fatal(err)
	}
	f.SetPlanCache(NewPlanCache(4))

	queries := []string{
		`SELECT ?s WHERE { ?s <http://x/p> "new" . }`,
		`SELECT ?o WHERE { <http://x/late> <http://x/p> ?o . }`,
		`SELECT ?s ?o WHERE { ?s <http://x/p> "old" . OPTIONAL { <http://x/late> <http://x/p> ?o . } }`,
	}
	for _, q := range queries[:2] {
		rs, err := f.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Rows) != 0 {
			t.Fatalf("%s: %d rows before the term exists", q, len(rs.Rows))
		}
	}
	if rs, err := f.Query(queries[2]); err != nil || len(rs.Rows) != 1 || len(rs.Rows[0].Binding) != 1 {
		t.Fatalf("%s: rows %v, err %v; want one row with ?o unbound", queries[2], rs, err)
	}

	late := rdf.IRI("http://x/late")
	g.Insert(rdf.Triple{S: late, P: p, O: rdf.Literal("new")})
	hits, _ := f.PlanCacheStats()
	for i, want := range []sparql.Binding{
		{"s": late},
		{"o": rdf.Literal("new")},
		{"s": rdf.IRI("http://x/early"), "o": rdf.Literal("new")},
	} {
		rs, err := f.Query(queries[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Rows) != 1 || !reflect.DeepEqual(rs.Rows[0].Binding, want) {
			t.Fatalf("%s: rows %v after the term was interned, want %v", queries[i], rs.Rows, want)
		}
	}
	if after, _ := f.PlanCacheStats(); after != hits+3 {
		t.Fatalf("plan cache hits %d -> %d: the answers did not come from the cached plans", hits, after)
	}
}
