package alex_test

import (
	"fmt"
	"math/rand"

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

// ExampleNewSystem shows the ALEX loop: feedback on a correct link makes
// the system explore around it and discover a similar link.
func ExampleNewSystem() {
	dict := alex.NewDict()
	g1 := alex.NewGraphWithDict(dict)
	g2 := alex.NewGraphWithDict(dict)
	add := func(g *alex.Graph, s, p, o string) {
		g.Insert(alex.Triple{S: alex.IRI(s), P: alex.IRI(p), O: alex.Literal(o)})
	}
	add(g1, "http://a/1", "http://a/name", "Grace Hopper")
	add(g1, "http://a/2", "http://a/name", "Alan Turing")
	add(g2, "http://b/1", "http://b/label", "Grace Hopper")
	add(g2, "http://b/2", "http://b/label", "Alan Turingg") // typo variant

	e1, e2 := g1.SubjectIDs(), g2.SubjectIDs()
	id := func(iri string) alex.ID { v, _ := dict.Lookup(alex.IRI(iri)); return v }

	cfg := alex.DefaultConfig()
	cfg.EpisodeSize = 8
	cfg.StepSize = 0.3 // wide step: the variant is several edits away
	initial := []alex.Link{{E1: id("http://a/1"), E2: id("http://b/1")}}
	sys := alex.NewSystem(g1, g2, e1, e2, initial, cfg)

	truth := alex.NewLinkSet(
		alex.Link{E1: id("http://a/1"), E2: id("http://b/1")},
		alex.Link{E1: id("http://a/2"), E2: id("http://b/2")},
	)
	sys.Run(alex.NewOracle(truth, 0, rand.New(rand.NewSource(1))), nil)

	m := alex.Evaluate(sys.Candidates(), truth)
	fmt.Printf("recall %.1f\n", m.Recall)
	// Output:
	// recall 1.0
}
