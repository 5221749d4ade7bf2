package sparql_test

import (
	"testing"

	"alex/internal/federation"
	"alex/internal/rdf"
)

func TestConstructVocabularyMapping(t *testing.T) {
	g := testGraph()
	out, err := federation.Construct(g, `CONSTRUCT { ?p <http://xmlns.com/foaf/0.1/name> ?n . }
		WHERE { ?p <http://ex/name> ?n . }`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != 3 {
		t.Fatalf("constructed %d triples, want 3", out.Size())
	}
	if !out.Has(rdf.Triple{S: rdf.IRI("http://ex/alice"), P: rdf.IRI("http://xmlns.com/foaf/0.1/name"), O: rdf.Literal("Alice")}) {
		t.Fatal("mapped triple missing")
	}
}

func TestConstructSameAsMaterialization(t *testing.T) {
	g := rdf.NewGraph()
	g.Insert(rdf.Triple{S: rdf.IRI("http://a/x"), P: rdf.IRI("http://p/id"), O: rdf.Literal("k1")})
	g.Insert(rdf.Triple{S: rdf.IRI("http://b/y"), P: rdf.IRI("http://q/id"), O: rdf.Literal("k1")})
	out, err := federation.Construct(g, `CONSTRUCT { ?u <`+rdf.OWLSameAs+`> ?v . } WHERE {
		?u <http://p/id> ?k . ?v <http://q/id> ?k .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Has(rdf.Triple{S: rdf.IRI("http://a/x"), P: rdf.IRI(rdf.OWLSameAs), O: rdf.IRI("http://b/y")}) {
		t.Fatalf("sameAs not constructed: %v", out.Triples())
	}
}

func TestConstructMultiTripleTemplate(t *testing.T) {
	g := testGraph()
	out, err := federation.Construct(g, `
		PREFIX x: <http://out/>
		CONSTRUCT { ?p x:name ?n . ?p a x:Person . }
		WHERE { ?p <http://ex/name> ?n . }`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != 6 {
		t.Fatalf("constructed %d triples, want 6", out.Size())
	}
	if !out.Has(rdf.Triple{S: rdf.IRI("http://ex/bob"), P: rdf.IRI(rdf.RDFType), O: rdf.IRI("http://out/Person")}) {
		t.Fatal("'a' in template not expanded")
	}
}

func TestConstructSkipsIllFormedTriples(t *testing.T) {
	g := testGraph()
	// ?n binds to literals: illegal in subject position, skipped.
	out, err := federation.Construct(g, `CONSTRUCT { ?n <http://out/was> ?p . } WHERE { ?p <http://ex/name> ?n . }`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != 0 {
		t.Fatalf("constructed %d ill-formed triples", out.Size())
	}
}

func TestConstructLimit(t *testing.T) {
	g := testGraph()
	out, err := federation.Construct(g, `CONSTRUCT { ?p <http://out/n> ?n . } WHERE { ?p <http://ex/name> ?n . } LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != 2 {
		t.Fatalf("size = %d, want 2", out.Size())
	}
}

func TestConstructWithFilterInWhere(t *testing.T) {
	g := testGraph()
	out, err := federation.Construct(g, `CONSTRUCT { ?p <http://out/senior> ?a . }
		WHERE { ?p <http://ex/age> ?a . FILTER(?a > 28) }`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != 2 {
		t.Fatalf("size = %d, want 2 (alice, carol)", out.Size())
	}
}

func TestConstructErrors(t *testing.T) {
	bad := []string{
		`CONSTRUCT { ?x <http://p> ?y . FILTER(?y > 1) } WHERE { ?x <http://p> ?y . }`,
		`CONSTRUCT { ?x <http://p> ?y . }`,
		`CONSTRUCT { ?x <http://p> ?y . } WHERE { ?x <http://p> ?y . } BOGUS`,
		`CONSTRUCT { ?x <http://p> ?y . } WHERE { ?x <http://p> ?y . } LIMIT -2`,
	}
	g := testGraph()
	for _, q := range bad {
		if _, err := federation.Construct(g, q); err == nil {
			t.Errorf("Construct(%q) succeeded, want error", q)
		}
	}
}
