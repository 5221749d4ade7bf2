package alex_test

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"strings"

	"alex"
)

// ExampleAutoLink links two tiny datasets with the built-in PARIS-style
// probabilistic aligner.
func ExampleAutoLink() {
	dict := alex.NewDict()
	g1 := alex.NewGraphWithDict(dict)
	g2 := alex.NewGraphWithDict(dict)

	g1.Insert(alex.Triple{S: alex.IRI("http://a/ada"), P: alex.IRI("http://a/name"), O: alex.Literal("Ada Lovelace")})
	g2.Insert(alex.Triple{S: alex.IRI("http://b/lovelace"), P: alex.IRI("http://b/label"), O: alex.Literal("Ada Lovelace")})

	scored := alex.AutoLink(g1, g2, g1.SubjectIDs(), g2.SubjectIDs(), alex.AutoLinkOptions())
	for _, s := range scored {
		fmt.Printf("%s == %s\n", dict.Term(s.E1).Value, dict.Term(s.E2).Value)
	}
	// Output:
	// http://a/ada == http://b/lovelace
}

// ExampleNewSystem is the whole pipeline on two tiny datasets describing
// the same people: the automatic linker finds the links whose names are
// spelled alike, and ALEX, fed by a ground-truth oracle standing in for
// the users, explores around the approved ones and discovers the rest.
func ExampleNewSystem() {
	// Both datasets share one dictionary so that entity IDs are
	// comparable across them.
	dict := alex.NewDict()
	kb := alex.NewGraphWithDict(dict)   // dataset 1: a knowledge base
	news := alex.NewGraphWithDict(dict) // dataset 2: a news archive
	add := func(g *alex.Graph, facts [][3]string) {
		for _, f := range facts {
			g.Insert(alex.Triple{S: alex.IRI(f[0]), P: alex.IRI(f[1]), O: alex.Literal(f[2])})
		}
	}
	add(kb, [][3]string{
		{"http://kb/LeBron_James", "http://kb/label", "LeBron James"},
		{"http://kb/LeBron_James", "http://kb/birth", "1984-12-30"},
		{"http://kb/Kevin_Durant", "http://kb/label", "Kevin Durant"},
		{"http://kb/Kevin_Durant", "http://kb/birth", "1988-09-29"},
		{"http://kb/Tim_Duncan", "http://kb/label", "Tim Duncan"},
		{"http://kb/Tim_Duncan", "http://kb/birth", "1976-04-25"},
	})
	// The news archive spells one name identically and the others
	// differently: ALEX has to discover Tim Duncan's link.
	add(news, [][3]string{
		{"http://news/p1", "http://news/name", "LeBron James"},
		{"http://news/p1", "http://news/born", "1984-12-30"},
		{"http://news/p2", "http://news/name", "Durant, Kevin"},
		{"http://news/p2", "http://news/born", "1988-09-29"},
		{"http://news/p3", "http://news/name", "Tim Dunkan"},
		{"http://news/p3", "http://news/born", "1976-04-26"},
	})
	e1, e2 := kb.SubjectIDs(), news.SubjectIDs()

	scored := alex.AutoLink(kb, news, e1, e2, alex.AutoLinkOptions())
	fmt.Printf("automatic linker found %d link(s)\n", len(scored))

	cfg := alex.DefaultConfig()
	cfg.EpisodeSize = 10
	cfg.MaxEpisodes = 20
	sys := alex.NewSystem(kb, news, e1, e2, alex.LinksOf(scored), cfg)

	id := func(iri string) alex.ID { v, _ := dict.Lookup(alex.IRI(iri)); return v }
	truth := alex.NewLinkSet(
		alex.Link{E1: id("http://kb/LeBron_James"), E2: id("http://news/p1")},
		alex.Link{E1: id("http://kb/Kevin_Durant"), E2: id("http://news/p2")},
		alex.Link{E1: id("http://kb/Tim_Duncan"), E2: id("http://news/p3")},
	)
	before := alex.Evaluate(sys.Candidates(), truth)
	res := sys.Run(alex.NewOracle(truth, 0, rand.New(rand.NewSource(1))), nil)
	after := alex.Evaluate(sys.Candidates(), truth)

	fmt.Printf("ALEX ran %d episodes (converged=%v)\n", res.Episodes, res.Converged)
	fmt.Printf("before: %v\nafter:  %v\nfinal links:\n", before, after)
	for _, l := range sys.Candidates().Slice() {
		fmt.Printf("  %s == %s\n", dict.Term(l.E1).Value, dict.Term(l.E2).Value)
	}
	// Output:
	// automatic linker found 2 link(s)
	// ALEX ran 4 episodes (converged=true)
	// before: P=1.000 R=0.667 F=0.800 (|C|=2, correct=2)
	// after:  P=1.000 R=1.000 F=1.000 (|C|=3, correct=3)
	// final links:
	//   http://kb/LeBron_James == http://news/p1
	//   http://kb/Kevin_Durant == http://news/p2
	//   http://kb/Tim_Duncan == http://news/p3
}

// Example_nba is the paper's motivating scenario (§1): "Find all New
// York Times articles about the NBA's MVP of 2013." The award fact lives
// in the knowledge base, the articles in the news archive, and the
// answer joins across an owl:sameAs link. Feedback on an answer becomes
// feedback on the link that produced it.
func Example_nba() {
	dict := alex.NewDict()
	kb := alex.NewGraphWithDict(dict)
	news := alex.NewGraphWithDict(dict)

	// The knowledge base knows who won the award.
	lebron := alex.IRI("http://dbpedia.example.org/LeBron_James")
	kb.Insert(alex.Triple{S: lebron, P: alex.IRI("http://dbpedia.example.org/onto/name"), O: alex.Literal("LeBron James")})
	kb.Insert(alex.Triple{S: lebron, P: alex.IRI("http://dbpedia.example.org/onto/birth"), O: alex.Literal("1984-12-30")})
	kb.Insert(alex.Triple{S: lebron, P: alex.IRI("http://dbpedia.example.org/onto/award"), O: alex.Literal("NBA Most Valuable Player Award 2013")})
	durant := alex.IRI("http://dbpedia.example.org/Kevin_Durant")
	kb.Insert(alex.Triple{S: durant, P: alex.IRI("http://dbpedia.example.org/onto/name"), O: alex.Literal("Kevin Durant")})
	kb.Insert(alex.Triple{S: durant, P: alex.IRI("http://dbpedia.example.org/onto/birth"), O: alex.Literal("1988-09-29")})
	kb.Insert(alex.Triple{S: durant, P: alex.IRI("http://dbpedia.example.org/onto/award"), O: alex.Literal("NBA Most Valuable Player Award 2014")})

	// The news archive has articles about its own person IRIs. The name
	// is formatted differently, but the birth date gives the automatic
	// linker the exact-value evidence it needs.
	nytLebron := alex.IRI("http://nytimes.example.org/person/lebron-james")
	news.Insert(alex.Triple{S: nytLebron, P: alex.IRI("http://nytimes.example.org/prop/name"), O: alex.Literal("James, LeBron")})
	news.Insert(alex.Triple{S: nytLebron, P: alex.IRI("http://nytimes.example.org/prop/born"), O: alex.Literal("1984-12-30")})
	for i, headline := range []string{
		"Heat Top Spurs in Game 7",
		"James Leads Miami to Second Straight Title",
		"MVP Again: A Season for the Ages",
	} {
		art := alex.IRI(fmt.Sprintf("http://nytimes.example.org/2013/article-%d", i+1))
		news.Insert(alex.Triple{S: art, P: alex.IRI("http://nytimes.example.org/prop/about"), O: nytLebron})
		news.Insert(alex.Triple{S: art, P: alex.IRI("http://nytimes.example.org/prop/headline"), O: alex.Literal(headline)})
	}

	// The LeBron pair shares only its birth date, whose single shared
	// value stays below the strict 0.95 default threshold.
	opts := alex.AutoLinkOptions()
	opts.Threshold = 0.5
	e1, e2 := kb.SubjectIDs(), news.SubjectIDs()
	scored := alex.AutoLink(kb, news, e1, e2, opts)
	sys := alex.NewSystem(kb, news, e1, e2, alex.LinksOf(scored), alex.DefaultConfig())

	// Federated querying with link provenance.
	fed := alex.NewFederator(dict)
	if err := fed.AddSource("dbpedia", kb); err != nil {
		log.Fatal(err)
	}
	if err := fed.AddSource("nytimes", news); err != nil {
		log.Fatal(err)
	}
	fed.SetLinks(sys.Candidates())
	res, err := fed.Query(`
		PREFIX dbo: <http://dbpedia.example.org/onto/>
		PREFIX nyt: <http://nytimes.example.org/prop/>
		SELECT ?headline WHERE {
			?mvp dbo:award "NBA Most Valuable Player Award 2013" .
			?article nyt:about ?mvp .
			?article nyt:headline ?headline .
		} ORDER BY ?headline`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("articles about the NBA MVP of 2013 (%d answers):\n", len(res.Rows))
	for i, row := range res.Rows {
		fmt.Printf("  [%d] %s (answered via %d sameAs link(s))\n", i, row.Binding["headline"].Value, row.Used.Len())
	}

	// Approving the first answer approves the link between the two
	// LeBron entities, and ALEX explores around it for similar links.
	before := sys.CandidateCount()
	alex.ApproveAnswer(res.Rows[0], sys)
	fmt.Printf("after approving answer 0: candidate links %d -> %d\n", before, sys.CandidateCount())
	// Output:
	// articles about the NBA MVP of 2013 (3 answers):
	//   [0] Heat Top Spurs in Game 7 (answered via 1 sameAs link(s))
	//   [1] James Leads Miami to Second Straight Title (answered via 1 sameAs link(s))
	//   [2] MVP Again: A Season for the Ages (answered via 1 sameAs link(s))
	// after approving answer 0: candidate links 1 -> 1
}

// Example_feedbackLoop is the batch mode of §7.2.1: a synthetic dataset
// pair, linked by the PARIS-style baseline, then ALEX episode by episode
// with the precision/recall/F-measure trajectory the paper plots in
// Figure 2, and the feature values the policy learned.
func Example_feedbackLoop() {
	prof, _ := alex.ProfileByName("opencyc-nytimes")
	prof = prof.Scale(0.5)
	ds := alex.GenerateDataset(prof)
	fmt.Printf("dataset pair %s: %d + %d triples, %d ground-truth links\n",
		prof.Name, ds.G1.Size(), ds.G2.Size(), ds.GroundTruth.Len())
	scored := alex.AutoLink(ds.G1, ds.G2, ds.Entities1, ds.Entities2, alex.AutoLinkOptions())
	fmt.Printf("automatic linker: %d candidate links\n", len(scored))

	cfg := alex.DefaultConfig()
	cfg.EpisodeSize = prof.EpisodeSize
	cfg.MaxEpisodes = 20
	cfg.Partitions = prof.Partitions
	cfg.Seed = prof.Seed
	sys := alex.NewSystem(ds.G1, ds.G2, ds.Entities1, ds.Entities2, alex.LinksOf(scored), cfg)
	oracle := alex.NewOracle(ds.GroundTruth, 0, rand.New(rand.NewSource(cfg.Seed)))

	fmt.Printf("%-8s %-10s %-10s %-10s %-8s %s\n", "episode", "precision", "recall", "f-measure", "|C|", "neg-fb%")
	m := alex.Evaluate(sys.Candidates(), ds.GroundTruth)
	fmt.Printf("%-8d %-10.3f %-10.3f %-10.3f %d\n", 0, m.Precision, m.Recall, m.F1, m.Candidates)
	res := sys.Run(oracle, func(st alex.EpisodeStats) {
		m := alex.Evaluate(sys.Candidates(), ds.GroundTruth)
		fmt.Printf("%-8d %-10.3f %-10.3f %-10.3f %-8d %.1f\n",
			st.Episode, m.Precision, m.Recall, m.F1, m.Candidates, st.NegativePct())
	})
	fmt.Printf("converged=%v after %d episodes (relaxed <5%% change at episode %d)\n",
		res.Converged, res.Episodes, res.RelaxedEpisode)

	// Distinctive features (name/name, date/date) rank above the shared
	// non-distinctive type.
	fmt.Printf("learned feature values:\n%s", alex.FormatFeatureStats(ds.Dict, sys.FeatureStats()))
	// Output:
	// dataset pair opencyc-nytimes: 1793 + 1118 triples, 140 ground-truth links
	// automatic linker: 42 candidate links
	// episode  precision  recall     f-measure  |C|      neg-fb%
	// 0        0.833      0.250      0.385      42
	// 1        0.978      0.629      0.765      90       27.4
	// 2        1.000      0.736      0.848      103      16.3
	// 3        1.000      0.764      0.866      107      4.2
	// 4        1.000      0.821      0.902      115      4.9
	// 5        1.000      0.821      0.902      115      3.4
	// 6        1.000      0.829      0.906      116      4.0
	// 7        1.000      0.836      0.911      117      5.3
	// 8        1.000      0.900      0.947      126      7.5
	// 9        1.000      0.900      0.947      126      2.6
	// 10       1.000      0.907      0.951      127      3.7
	// 11       1.000      0.914      0.955      128      2.9
	// 12       1.000      0.914      0.955      128      2.4
	// 13       1.000      0.914      0.955      128      1.1
	// converged=true after 13 episodes (relaxed <5% change at episode 3)
	// learned feature values:
	// ds1 predicate                ds2 predicate                meanQ    states   greedy-for
	// label                        name                         -0.256   27       21
	// birthDate                    born                         -0.696   53       34
	// category                     kind                         -0.704   38       20
	// category                     group                        -0.743   42       21
	// birthPlace                   hometown                     -0.747   51       32
}

// naiveLinker links entities whose name literals are equal after
// lowercasing and trimming: the kind of ad-hoc matcher many pipelines
// start with.
func naiveLinker(ds *alex.SynthDataset) []alex.Link {
	nameOf := func(g *alex.Graph, e alex.ID, pred alex.Term) (string, bool) {
		pid, ok := g.Dict().Lookup(pred)
		if !ok {
			return "", false
		}
		objs := g.Objects(e, pid)
		if len(objs) == 0 {
			return "", false
		}
		return strings.ToLower(strings.TrimSpace(g.Dict().Term(objs[0]).Value)), true
	}
	label := alex.IRI("http://ds1.example.org/onto/label")
	name := alex.IRI("http://ds2.example.org/prop/name")

	byName := map[string][]alex.ID{}
	for _, e2 := range ds.Entities2 {
		if n, ok := nameOf(ds.G2, e2, name); ok {
			byName[n] = append(byName[n], e2)
		}
	}
	var out []alex.Link
	for _, e1 := range ds.Entities1 {
		n, ok := nameOf(ds.G1, e1, label)
		if !ok {
			continue
		}
		for _, e2 := range byName[n] {
			out = append(out, alex.Link{E1: e1, E2: e2})
		}
	}
	return out
}

// Example_customLinker shows that ALEX is linker-agnostic (§3.2: "ALEX
// accepts the links between two data sets as input... generated by any
// automatic linking algorithm"): it starts from naiveLinker's exact-name
// matches instead of the built-in baseline and improves them all the
// same.
func Example_customLinker() {
	prof, _ := alex.ProfileByName("opencyc-lexvo")
	ds := alex.GenerateDataset(prof)
	initial := naiveLinker(ds)
	before := alex.Evaluate(alex.NewLinkSet(initial...), ds.GroundTruth)
	fmt.Printf("naive exact-name linker: %v\n", before)

	cfg := alex.DefaultConfig()
	cfg.EpisodeSize = prof.EpisodeSize
	cfg.Partitions = prof.Partitions
	cfg.MaxEpisodes = 30
	sys := alex.NewSystem(ds.G1, ds.G2, ds.Entities1, ds.Entities2, initial, cfg)
	res := sys.Run(alex.NewOracle(ds.GroundTruth, 0, rand.New(rand.NewSource(4))), nil)
	after := alex.Evaluate(sys.Candidates(), ds.GroundTruth)
	fmt.Printf("after ALEX (%d episodes, converged=%v): %v\n", res.Episodes, res.Converged, after)
	fmt.Printf("F-measure %.3f -> %.3f\n", before.F1, after.F1)
	// Output:
	// naive exact-name linker: P=0.444 R=0.400 F=0.421 (|C|=63, correct=28)
	// after ALEX (8 episodes, converged=true): P=1.000 R=0.886 F=0.939 (|C|=62, correct=62)
	// F-measure 0.421 -> 0.939
}

// Example_checkpoint checkpoints a long-running deployment: the batch
// mode's service provider (§7.2.1) collects feedback continuously, so it
// saves everything the system has learned (candidates, provenance,
// votes and blacklist, Q tables), restores it into a freshly built
// system and keeps going.
func Example_checkpoint() {
	prof, _ := alex.ProfileByName("opencyc-lexvo")
	ds := alex.GenerateDataset(prof)
	initial := alex.LinksOf(alex.AutoLink(ds.G1, ds.G2, ds.Entities1, ds.Entities2, alex.AutoLinkOptions()))

	cfg := alex.DefaultConfig()
	cfg.EpisodeSize = prof.EpisodeSize
	cfg.Partitions = prof.Partitions
	cfg.MaxEpisodes = 30
	sys := alex.NewSystem(ds.G1, ds.G2, ds.Entities1, ds.Entities2, initial, cfg)
	oracle := alex.NewOracle(ds.GroundTruth, 0, rand.New(rand.NewSource(7)))
	for i := 0; i < 3; i++ {
		sys.RunEpisode(oracle)
	}
	fmt.Printf("after 3 episodes: %v\n", alex.Evaluate(sys.Candidates(), ds.GroundTruth))

	var checkpoint bytes.Buffer // a file, in a real deployment
	if err := sys.Save(&checkpoint); err != nil {
		log.Fatal(err)
	}

	// A new process rebuilds the system over the same data and restores.
	// Dictionary IDs are positional, so the datasets must be loaded
	// identically.
	restored := alex.NewSystem(ds.G1, ds.G2, ds.Entities1, ds.Entities2, initial, cfg)
	if err := restored.Restore(&checkpoint); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored at episode %d with %d candidates\n", restored.Episode(), restored.CandidateCount())

	res := restored.Run(alex.NewOracle(ds.GroundTruth, 0, rand.New(rand.NewSource(8))), nil)
	fmt.Printf("after %d total episodes (converged=%v): %v\n",
		res.Episodes, res.Converged, alex.Evaluate(restored.Candidates(), ds.GroundTruth))
	// Output:
	// after 3 episodes: P=1.000 R=0.914 F=0.955 (|C|=64, correct=64)
	// restored at episode 3 with 64 candidates
	// after 7 total episodes (converged=true): P=1.000 R=0.929 F=0.963 (|C|=65, correct=65)
}
