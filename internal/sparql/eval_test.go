package sparql_test

import (
	"fmt"
	"testing"

	"alex/internal/federation"
	"alex/internal/rdf"
	"alex/internal/sparql"
)

// These tests assert the SPARQL semantics of single-graph queries. The
// language lives in this package; the executor they drive is the one
// in internal/federation, as a federation of one source.

func testGraph() *rdf.Graph {
	g := rdf.NewGraph()
	add := func(s, p string, o rdf.Term) {
		g.Insert(rdf.Triple{S: rdf.IRI("http://ex/" + s), P: rdf.IRI("http://ex/" + p), O: o})
	}
	add("alice", "name", rdf.Literal("Alice"))
	add("alice", "age", rdf.TypedLiteral("30", rdf.XSDInteger))
	add("alice", "knows", rdf.IRI("http://ex/bob"))
	add("bob", "name", rdf.Literal("Bob"))
	add("bob", "age", rdf.TypedLiteral("25", rdf.XSDInteger))
	add("carol", "name", rdf.Literal("Carol"))
	add("carol", "age", rdf.TypedLiteral("35", rdf.XSDInteger))
	add("alice", "type", rdf.IRI("http://ex/Person"))
	add("bob", "type", rdf.IRI("http://ex/Person"))
	return g
}

func mustExec(t *testing.T, g *rdf.Graph, q string) *sparql.Result {
	t.Helper()
	res, err := federation.Execute(g, q)
	if err != nil {
		t.Fatalf("Execute(%q): %v", q, err)
	}
	return res
}

func TestExecuteSimpleBGP(t *testing.T) {
	g := testGraph()
	res := mustExec(t, g, `SELECT ?n WHERE { <http://ex/alice> <http://ex/name> ?n . }`)
	if len(res.Rows) != 1 || res.Rows[0]["n"] != rdf.Literal("Alice") {
		t.Fatalf("rows = %+v", res.Rows)
	}
}

func TestExecuteJoin(t *testing.T) {
	g := testGraph()
	res := mustExec(t, g, `SELECT ?friendName WHERE {
		<http://ex/alice> <http://ex/knows> ?f .
		?f <http://ex/name> ?friendName .
	}`)
	if len(res.Rows) != 1 || res.Rows[0]["friendName"] != rdf.Literal("Bob") {
		t.Fatalf("rows = %+v", res.Rows)
	}
}

func TestExecuteFilterNumeric(t *testing.T) {
	g := testGraph()
	res := mustExec(t, g, `SELECT ?p WHERE { ?p <http://ex/age> ?a . FILTER(?a > 28) }`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (alice, carol)", len(res.Rows))
	}
}

func TestExecuteFilterStringFuncs(t *testing.T) {
	g := testGraph()
	res := mustExec(t, g, `SELECT ?p WHERE {
		?p <http://ex/name> ?n .
		FILTER(CONTAINS(LCASE(STR(?n)), "ali"))
	}`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
}

func TestExecuteOptional(t *testing.T) {
	g := testGraph()
	res := mustExec(t, g, `SELECT ?p ?f WHERE {
		?p <http://ex/name> ?n .
		OPTIONAL { ?p <http://ex/knows> ?f . }
	}`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	withFriend := 0
	for _, r := range res.Rows {
		if _, ok := r["f"]; ok {
			withFriend++
		}
	}
	if withFriend != 1 {
		t.Fatalf("rows with friend = %d, want 1", withFriend)
	}
}

// TestExecuteOrderByUnboundOptional: a variable an OPTIONAL left unbound
// is absent from the projected row and orders as the empty string —
// before every bound value ascending, after them descending.
func TestExecuteOrderByUnboundOptional(t *testing.T) {
	g := testGraph()
	const where = `WHERE {
		?p <http://ex/name> ?n .
		OPTIONAL { ?p <http://ex/knows> ?f . }
	}`
	for _, tc := range []struct {
		order string
		names []string
	}{
		{"ORDER BY ?f ?n", []string{"Bob", "Carol", "Alice"}},
		{"ORDER BY DESC(?f) DESC(?n)", []string{"Alice", "Carol", "Bob"}},
	} {
		res := mustExec(t, g, "SELECT ?n ?f "+where+" "+tc.order)
		if len(res.Rows) != len(tc.names) {
			t.Fatalf("%s: rows = %d, want %d", tc.order, len(res.Rows), len(tc.names))
		}
		for i, r := range res.Rows {
			if r["n"].Value != tc.names[i] {
				t.Fatalf("%s: row %d is %v, want %s", tc.order, i, r, tc.names[i])
			}
			f, bound := r["f"]
			if want := tc.names[i] == "Alice"; bound != want || bound && f != rdf.IRI("http://ex/bob") {
				t.Fatalf("%s: row %d binds ?f to %v (bound %v)", tc.order, i, f, bound)
			}
		}
	}
	// SELECT * lists the group's own variables before the OPTIONAL's.
	res := mustExec(t, g, "SELECT * "+where)
	if fmt.Sprint(res.Vars) != "[p n f]" {
		t.Fatalf("SELECT * vars = %v, want [p n f]", res.Vars)
	}
}

func TestExecuteUnion(t *testing.T) {
	g := testGraph()
	res := mustExec(t, g, `SELECT ?p WHERE {
		{ ?p <http://ex/name> "Alice" . } UNION { ?p <http://ex/name> "Bob" . }
	}`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
}

func TestExecuteDistinctOrderLimit(t *testing.T) {
	g := testGraph()
	res := mustExec(t, g, `SELECT DISTINCT ?a WHERE { ?p <http://ex/age> ?a . } ORDER BY DESC(?a) LIMIT 2`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	if res.Rows[0]["a"].Value != "35" || res.Rows[1]["a"].Value != "30" {
		t.Fatalf("ordering wrong: %+v", res.Rows)
	}
}

func TestExecuteOffset(t *testing.T) {
	g := testGraph()
	res := mustExec(t, g, `SELECT ?a WHERE { ?p <http://ex/age> ?a . } ORDER BY ?a OFFSET 1`)
	if len(res.Rows) != 2 || res.Rows[0]["a"].Value != "30" {
		t.Fatalf("rows = %+v", res.Rows)
	}
	res = mustExec(t, g, `SELECT ?a WHERE { ?p <http://ex/age> ?a . } OFFSET 100`)
	if len(res.Rows) != 0 {
		t.Fatalf("offset beyond end returned %d rows", len(res.Rows))
	}
}

func TestExecuteSelectStar(t *testing.T) {
	g := testGraph()
	res := mustExec(t, g, `SELECT * WHERE { ?p <http://ex/name> ?n . }`)
	if len(res.Vars) != 2 {
		t.Fatalf("vars = %v", res.Vars)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestExecuteNoMatches(t *testing.T) {
	g := testGraph()
	res := mustExec(t, g, `SELECT ?x WHERE { ?x <http://ex/missing> ?y . }`)
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %d, want 0", len(res.Rows))
	}
}

func TestExecuteSameVarTwice(t *testing.T) {
	g := rdf.NewGraph()
	g.Insert(rdf.Triple{S: rdf.IRI("http://a"), P: rdf.IRI("http://p"), O: rdf.IRI("http://a")})
	g.Insert(rdf.Triple{S: rdf.IRI("http://a"), P: rdf.IRI("http://p"), O: rdf.IRI("http://b")})
	res := mustExec(t, g, `SELECT ?x WHERE { ?x <http://p> ?x . }`)
	if len(res.Rows) != 1 || res.Rows[0]["x"] != rdf.IRI("http://a") {
		t.Fatalf("rows = %+v", res.Rows)
	}
}

func TestExecuteBoundAndNot(t *testing.T) {
	g := testGraph()
	res := mustExec(t, g, `SELECT ?p WHERE {
		?p <http://ex/name> ?n .
		OPTIONAL { ?p <http://ex/knows> ?f . }
		FILTER(!BOUND(?f))
	}`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (bob, carol)", len(res.Rows))
	}
}

func TestExecuteRegexSubset(t *testing.T) {
	g := testGraph()
	res := mustExec(t, g, `SELECT ?p WHERE {
		?p <http://ex/name> ?n . FILTER(REGEX(?n, "^A", "i"))
	}`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
}

func TestExecuteTypeQuery(t *testing.T) {
	g := rdf.NewGraph()
	g.Insert(rdf.Triple{S: rdf.IRI("http://ex/alice"), P: rdf.IRI(rdf.RDFType), O: rdf.IRI("http://ex/Person")})
	res := mustExec(t, g, `SELECT ?x WHERE { ?x a <http://ex/Person> . }`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
}

func TestExecuteLargerJoinOrder(t *testing.T) {
	// A chain query where naive left-to-right order would be expensive:
	// verifies the greedy selectivity ordering still yields correct results.
	g := rdf.NewGraph()
	for i := 0; i < 50; i++ {
		g.Insert(rdf.Triple{
			S: rdf.IRI(fmt.Sprintf("http://e/%d", i)),
			P: rdf.IRI("http://p/knows"),
			O: rdf.IRI(fmt.Sprintf("http://e/%d", (i+1)%50)),
		})
		g.Insert(rdf.Triple{
			S: rdf.IRI(fmt.Sprintf("http://e/%d", i)),
			P: rdf.IRI("http://p/name"),
			O: rdf.Literal(fmt.Sprintf("entity-%d", i)),
		})
	}
	res := mustExec(t, g, `SELECT ?n2 WHERE {
		?a <http://p/name> "entity-7" .
		?a <http://p/knows> ?b .
		?b <http://p/name> ?n2 .
	}`)
	if len(res.Rows) != 1 || res.Rows[0]["n2"] != rdf.Literal("entity-8") {
		t.Fatalf("rows = %+v", res.Rows)
	}
}

func TestAskQuery(t *testing.T) {
	g := testGraph()
	res := mustExec(t, g, `ASK { ?p <http://ex/name> "Alice" . }`)
	if !res.Ask {
		t.Fatal("ASK = false, want true")
	}
	res = mustExec(t, g, `ASK { ?p <http://ex/name> "Dave" . }`)
	if res.Ask {
		t.Fatal("ASK = true, want false")
	}
}

func TestAskWithWhereKeyword(t *testing.T) {
	g := testGraph()
	res := mustExec(t, g, `ASK WHERE { ?p <http://ex/name> "Alice" . }`)
	if !res.Ask {
		t.Fatal("ASK WHERE failed")
	}
}
