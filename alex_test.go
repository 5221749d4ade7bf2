package alex_test

import (
	"math/rand"
	"testing"

	"alex"
	"alex/internal/federation"
)

// TestEndToEndPipeline exercises the full public API: generate a pair,
// auto-link, run ALEX to convergence, and check quality improved.
func TestEndToEndPipeline(t *testing.T) {
	prof, ok := alex.ProfileByName("opencyc-lexvo")
	if !ok {
		t.Fatal("missing built-in profile")
	}
	prof = prof.Scale(0.5)
	ds := alex.GenerateDataset(prof)

	scored := alex.AutoLink(ds.G1, ds.G2, ds.Entities1, ds.Entities2, alex.AutoLinkOptions())
	if len(scored) == 0 {
		t.Fatal("auto-linker produced nothing")
	}
	initial := alex.LinksOf(scored)

	cfg := alex.DefaultConfig()
	cfg.EpisodeSize = 150
	cfg.MaxEpisodes = 15
	cfg.Partitions = 2
	sys := alex.NewSystem(ds.G1, ds.G2, ds.Entities1, ds.Entities2, initial, cfg)

	before := alex.Evaluate(sys.Candidates(), ds.GroundTruth)
	oracle := alex.NewOracle(ds.GroundTruth, 0, rand.New(rand.NewSource(2)))
	res := sys.Run(oracle, nil)
	after := alex.Evaluate(sys.Candidates(), ds.GroundTruth)

	t.Logf("episodes=%d before=%v after=%v", res.Episodes, before, after)
	if after.F1 <= before.F1 {
		t.Fatalf("no improvement: %.3f -> %.3f", before.F1, after.F1)
	}
}

// TestFederatedFeedbackLoop exercises the query-answer feedback path:
// a federated answer is approved and the link behind it triggers
// exploration in the system.
func TestFederatedFeedbackLoop(t *testing.T) {
	dict := alex.NewDict()
	g1 := alex.NewGraphWithDict(dict)
	g2 := alex.NewGraphWithDict(dict)

	player := alex.IRI("http://kb/LeBron_James")
	g1.Insert(alex.Triple{S: player, P: alex.IRI("http://kb/name"), O: alex.Literal("LeBron James")})
	g1.Insert(alex.Triple{S: player, P: alex.IRI("http://kb/award"), O: alex.Literal("NBA MVP 2013")})

	person := alex.IRI("http://news/lebron")
	g2.Insert(alex.Triple{S: person, P: alex.IRI("http://news/name"), O: alex.Literal("LeBron James")})
	g2.Insert(alex.Triple{S: alex.IRI("http://news/article1"), P: alex.IRI("http://news/about"), O: person})

	e1 := g1.SubjectIDs()
	e2 := g2.SubjectIDs()
	scored := alex.AutoLink(g1, g2, e1, e2, alex.AutoLinkOptions())
	if len(scored) == 0 {
		t.Fatal("linker found nothing")
	}

	cfg := alex.DefaultConfig()
	cfg.EpisodeSize = 10
	sys := alex.NewSystem(g1, g2, e1, e2, alex.LinksOf(scored), cfg)

	fed := alex.NewFederator(dict)
	if err := fed.AddSource("kb", g1); err != nil {
		t.Fatal(err)
	}
	if err := fed.AddSource("news", g2); err != nil {
		t.Fatal(err)
	}
	fed.SetLinks(sys.Candidates())

	res, err := fed.Query(`SELECT ?article WHERE {
		?p <http://kb/award> "NBA MVP 2013" .
		?article <http://news/about> ?p .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	if res.Rows[0].Used.Len() == 0 {
		t.Fatal("answer carries no link provenance")
	}
	alex.ApproveAnswer(res.Rows[0], sys)
	// approval keeps the link a candidate
	for _, l := range res.Rows[0].Used.Slice() {
		if !sys.Candidates().Has(l) {
			t.Fatal("approved link vanished")
		}
	}
	federation.Reject(res.Rows[0], sys)
	for _, l := range res.Rows[0].Used.Slice() {
		if sys.Candidates().Has(l) {
			t.Fatal("rejected link survived")
		}
	}
}

func TestProfilesExposed(t *testing.T) {
	// 11 paper dataset pairs plus the skewed-hub adaptive-execution
	// stress profile.
	if len(alex.Profiles()) != 12 {
		t.Fatalf("profiles = %d", len(alex.Profiles()))
	}
}
