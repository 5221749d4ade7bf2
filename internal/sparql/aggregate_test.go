package sparql_test

import (
	"testing"

	"alex/internal/federation"
	"alex/internal/rdf"
	"alex/internal/sparql"
)

func aggGraph() *rdf.Graph {
	g := rdf.NewGraph()
	add := func(s, team string, pts string) {
		subj := rdf.IRI("http://ex/" + s)
		g.Insert(rdf.Triple{S: subj, P: rdf.IRI("http://ex/team"), O: rdf.Literal(team)})
		g.Insert(rdf.Triple{S: subj, P: rdf.IRI("http://ex/points"), O: rdf.TypedLiteral(pts, rdf.XSDInteger)})
	}
	add("p1", "Heat", "27")
	add("p2", "Heat", "19")
	add("p3", "Spurs", "21")
	add("p4", "Spurs", "14")
	add("p5", "Spurs", "9")
	return g
}

func TestAskQuery(t *testing.T) {
	g := aggGraph()
	res := mustExec(t, g, `ASK { ?p <http://ex/team> "Heat" . }`)
	if !res.Ask {
		t.Fatal("ASK = false, want true")
	}
	res = mustExec(t, g, `ASK { ?p <http://ex/team> "Lakers" . }`)
	if res.Ask {
		t.Fatal("ASK = true, want false")
	}
}

func TestCountStar(t *testing.T) {
	g := aggGraph()
	res := mustExec(t, g, `SELECT (COUNT(*) AS ?n) WHERE { ?p <http://ex/team> ?t . }`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if got := res.Rows[0]["n"]; got != rdf.TypedLiteral("5", rdf.XSDInteger) {
		t.Fatalf("count = %v", got)
	}
}

func TestCountOverEmpty(t *testing.T) {
	g := aggGraph()
	res := mustExec(t, g, `SELECT (COUNT(*) AS ?n) WHERE { ?p <http://ex/team> "Lakers" . }`)
	if len(res.Rows) != 1 || res.Rows[0]["n"].Value != "0" {
		t.Fatalf("rows = %+v, want single 0 row", res.Rows)
	}
}

func TestGroupByCount(t *testing.T) {
	g := aggGraph()
	res := mustExec(t, g, `SELECT ?t (COUNT(?p) AS ?n) WHERE { ?p <http://ex/team> ?t . } GROUP BY ?t`)
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	byTeam := map[string]string{}
	for _, r := range res.Rows {
		byTeam[r["t"].Value] = r["n"].Value
	}
	if byTeam["Heat"] != "2" || byTeam["Spurs"] != "3" {
		t.Fatalf("counts = %v", byTeam)
	}
}

func TestSumAvgMinMax(t *testing.T) {
	g := aggGraph()
	res := mustExec(t, g, `SELECT ?t (SUM(?pts) AS ?sum) (AVG(?pts) AS ?avg) (MIN(?pts) AS ?min) (MAX(?pts) AS ?max)
		WHERE { ?p <http://ex/team> ?t . ?p <http://ex/points> ?pts . } GROUP BY ?t`)
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		switch r["t"].Value {
		case "Heat":
			if r["sum"].Value != "46" || r["avg"].Value != "23" || r["min"].Value != "19" || r["max"].Value != "27" {
				t.Fatalf("Heat aggregates = %v", r)
			}
		case "Spurs":
			if r["sum"].Value != "44" || r["min"].Value != "9" || r["max"].Value != "21" {
				t.Fatalf("Spurs aggregates = %v", r)
			}
		}
	}
}

func TestCountDistinct(t *testing.T) {
	g := aggGraph()
	res := mustExec(t, g, `SELECT (COUNT(DISTINCT ?t) AS ?teams) WHERE { ?p <http://ex/team> ?t . }`)
	if res.Rows[0]["teams"].Value != "2" {
		t.Fatalf("distinct teams = %v", res.Rows[0]["teams"])
	}
}

func TestAggregateOrderAndLimit(t *testing.T) {
	g := aggGraph()
	res := mustExec(t, g, `SELECT ?t (COUNT(?p) AS ?n) WHERE { ?p <http://ex/team> ?t . }
		GROUP BY ?t ORDER BY DESC(?n) LIMIT 1`)
	if len(res.Rows) != 1 || res.Rows[0]["t"].Value != "Spurs" {
		t.Fatalf("top group = %+v", res.Rows)
	}
}

func TestAggregateErrors(t *testing.T) {
	bad := []string{
		`SELECT ?p (COUNT(?x) AS ?n) WHERE { ?p <http://ex/team> ?x . }`,              // ?p not grouped
		`SELECT (SUM(*) AS ?n) WHERE { ?p <http://ex/team> ?x . }`,                    // SUM(*)
		`SELECT (BOGUS(?x) AS ?n) WHERE { ?p <http://ex/team> ?x . }`,                 // unknown fn
		`SELECT (COUNT(?x) AS ?n) WHERE { ?p <http://ex/team> ?x . } GROUP BY`,        // empty group by
		`SELECT ?p WHERE { ?p <http://ex/team> ?x . } GROUP BY ?p`,                    // group by without aggregate
		`SELECT (COUNT(?x)) WHERE { ?p <http://ex/team> ?x . }`,                       // missing AS
		`SELECT ?t (SUM(?t) AS ?s) WHERE { ?p <http://ex/team> ?t . } GROUP BY ?t ??`, // trailing garbage
	}
	for _, q := range bad {
		if _, err := sparql.Parse(q); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", q)
		}
	}
	// SUM over non-numeric values errors at evaluation time.
	g := aggGraph()
	if _, err := federation.Execute(g, `SELECT (SUM(?t) AS ?s) WHERE { ?p <http://ex/team> ?t . }`); err == nil {
		t.Error("SUM over strings succeeded")
	}
}

func TestAskWithWhereKeyword(t *testing.T) {
	g := aggGraph()
	res := mustExec(t, g, `ASK WHERE { ?p <http://ex/team> "Heat" . }`)
	if !res.Ask {
		t.Fatal("ASK WHERE failed")
	}
}
