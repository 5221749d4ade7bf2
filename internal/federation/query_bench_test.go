package federation

import (
	"fmt"
	"testing"

	"alex/internal/rdf"
	"alex/internal/synth"
)

// benchFederation builds the benchmark federation: the dbpedia-nytimes
// synth pair with ground-truth sameAs links installed, queried by a
// three-pattern join written in pessimal order (broad label scan first,
// cross-source join second, selective category constant last). The
// planner's job is to hoist the category pattern; the workers' job is
// to fan out the cross-source join.
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

// BenchmarkFederatedQuery measures end-to-end query latency in two
// configurations:
//
//   - cold: parsing and planning on every call.
//   - warm: a pre-warmed plan cache, the steady state of alexd's
//     /query loop.
//
// `make bench-query` records both as BENCH_query.json, at every -cpu
// value the host has cores for.
func BenchmarkFederatedQuery(b *testing.B) {
	f, query := benchFederation(b)

	run := func(b *testing.B, fed *Federator) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fed.Query(query); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	}

	b.Run("cold", func(b *testing.B) {
		run(b, withOptions(f, Options{}))
	})
	b.Run("warm", func(b *testing.B) {
		fed := withOptions(f, Options{})
		fed.SetPlanCache(NewPlanCache(16))
		if _, err := fed.Query(query); err != nil { // prime the cache
			b.Fatal(err)
		}
		run(b, fed)
	})
}
