package sparql

import (
	"testing"

	"alex/internal/rdf"
)

func TestParseBasicSelect(t *testing.T) {
	q, err := Parse(`SELECT ?s ?o WHERE { ?s <http://p> ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Vars) != 2 || q.Vars[0] != "s" || q.Vars[1] != "o" {
		t.Fatalf("Vars = %v", q.Vars)
	}
	if len(q.Where.Triples) != 1 {
		t.Fatalf("Triples = %d, want 1", len(q.Where.Triples))
	}
	tp := q.Where.Triples[0]
	if !tp.S.IsVar || tp.S.Var != "s" {
		t.Errorf("subject = %+v", tp.S)
	}
	if tp.P.IsVar || tp.P.Term != rdf.IRI("http://p") {
		t.Errorf("predicate = %+v", tp.P)
	}
}

func TestParsePrefixes(t *testing.T) {
	q, err := Parse(`
		PREFIX foaf: <http://xmlns.com/foaf/0.1/>
		SELECT * WHERE { ?x foaf:name "Alice" . }`)
	if err != nil {
		t.Fatal(err)
	}
	tp := q.Where.Triples[0]
	if tp.P.Term != rdf.IRI("http://xmlns.com/foaf/0.1/name") {
		t.Fatalf("prefixed name expanded to %v", tp.P.Term)
	}
	if tp.O.Term != rdf.Literal("Alice") {
		t.Fatalf("object = %v", tp.O.Term)
	}
}

func TestParseAKeyword(t *testing.T) {
	q, err := Parse(`SELECT ?x WHERE { ?x a <http://ex/Person> . }`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Where.Triples[0].P.Term != rdf.IRI(rdf.RDFType) {
		t.Fatalf("'a' expanded to %v", q.Where.Triples[0].P.Term)
	}
}

func TestParseAbbreviations(t *testing.T) {
	q, err := Parse(`SELECT * WHERE { ?x <http://p> "a", "b" ; <http://q> "c" . }`)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(q.Where.Triples); n != 3 {
		t.Fatalf("triples = %d, want 3", n)
	}
}

func TestParseTypedAndLangLiterals(t *testing.T) {
	q, err := Parse(`SELECT * WHERE {
		?x <http://p> "5"^^<` + rdf.XSDInteger + `> .
		?x <http://q> "hi"@en .
		?x <http://r> 42 .
		?x <http://s> 3.5 .
		?x <http://t> true .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	want := []rdf.Term{
		rdf.TypedLiteral("5", rdf.XSDInteger),
		rdf.LangLiteral("hi", "en"),
		rdf.TypedLiteral("42", rdf.XSDInteger),
		rdf.TypedLiteral("3.5", rdf.XSDDecimal),
		rdf.TypedLiteral("true", rdf.XSDBoolean),
	}
	for i, w := range want {
		if got := q.Where.Triples[i].O.Term; got != w {
			t.Errorf("object %d = %v, want %v", i, got, w)
		}
	}
}

func TestParseFilterOptionalUnion(t *testing.T) {
	q, err := Parse(`SELECT ?x WHERE {
		?x <http://p> ?v .
		FILTER(?v > 3 && ?v < 10)
		OPTIONAL { ?x <http://q> ?w . }
		{ ?x <http://r> "a" . } UNION { ?x <http://r> "b" . }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where.Filters) != 1 {
		t.Fatalf("filters = %d", len(q.Where.Filters))
	}
	if len(q.Where.Optionals) != 1 {
		t.Fatalf("optionals = %d", len(q.Where.Optionals))
	}
	if len(q.Where.Unions) != 1 || len(q.Where.Unions[0]) != 2 {
		t.Fatalf("unions = %+v", q.Where.Unions)
	}
}

func TestParseSolutionModifiers(t *testing.T) {
	q, err := Parse(`SELECT DISTINCT ?x WHERE { ?x <http://p> ?y . }
		ORDER BY DESC(?y) ?x LIMIT 10 OFFSET 5`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Distinct {
		t.Error("DISTINCT not set")
	}
	if len(q.OrderBy) != 2 || !q.OrderBy[0].Desc || q.OrderBy[0].Var != "y" || q.OrderBy[1].Var != "x" {
		t.Errorf("OrderBy = %+v", q.OrderBy)
	}
	if q.Limit != 10 || q.Offset != 5 {
		t.Errorf("Limit/Offset = %d/%d", q.Limit, q.Offset)
	}
}

func TestParseNestedGroupMerges(t *testing.T) {
	q, err := Parse(`SELECT * WHERE { { ?x <http://p> ?y . } }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where.Triples) != 1 {
		t.Fatalf("nested group not merged: %+v", q.Where)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT`,
		`SELECT ?x`,
		`SELECT ?x WHERE { ?x }`,
		`SELECT ?x WHERE { ?x <http://p> ?y `,
		`SELECT ?x WHERE { ?x unknown:p ?y . }`,
		`SELECT ?x WHERE { ?x <http://p> ?y . } LIMIT -1`,
		`SELECT ?x WHERE { ?x <http://p> ?y . } BOGUS`,
		`SELECT ?x WHERE { FILTER(NOSUCHFN(?x)) ?x <http://p> ?y . }`,
		`SELECT ?x WHERE { ?x <http://p> ?y . FILTER(?y >) }`,
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

// TestAggregateErrors: the subset has no aggregates and no GROUP BY,
// so every such query is a parse error. ALEX's queries are basic graph
// patterns with OPTIONAL and FILTER, and an aggregate row would stand
// for every link that fed its group.
func TestAggregateErrors(t *testing.T) {
	for name, in := range map[string]string{
		"count-star":     `SELECT (COUNT(*) AS ?n) WHERE { ?p <http://ex/team> ?t . }`,
		"count-distinct": `SELECT (COUNT(DISTINCT ?t) AS ?n) WHERE { ?p <http://ex/team> ?t . }`,
		"sum":            `SELECT ?t (SUM(?pts) AS ?s) WHERE { ?p <http://ex/team> ?t . ?p <http://ex/points> ?pts . } GROUP BY ?t`,
		"group-by-count": `SELECT ?t (COUNT(?p) AS ?n) WHERE { ?p <http://ex/team> ?t . } GROUP BY ?t`,
		"group-by-plain": `SELECT ?t WHERE { ?p <http://ex/team> ?t . } GROUP BY ?t`,
	} {
		if q, err := Parse(in); err == nil {
			t.Errorf("%s: Parse succeeded (%+v), want error", name, q)
		}
	}
}

func TestTriplePatternVars(t *testing.T) {
	tp := TriplePattern{S: VarNode("x"), P: TermNode(rdf.IRI("http://p")), O: VarNode("x")}
	vars := tp.Vars()
	if len(vars) != 1 || vars[0] != "x" {
		t.Fatalf("Vars = %v, want [x]", vars)
	}
}
