package sparql_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"alex/internal/federation"
	"alex/internal/rdf"
	"alex/internal/sparql"
	"alex/internal/store"
)

// bruteForceBGP evaluates a basic graph pattern by enumerating every
// assignment of graph terms to variables — exponential, but an
// unarguable reference for small cases.
func bruteForceBGP(g *rdf.Graph, patterns []sparql.TriplePattern) []sparql.Binding {
	varSet := map[string]bool{}
	for _, tp := range patterns {
		for _, v := range tp.Vars() {
			varSet[v] = true
		}
	}
	vars := make([]string, 0, len(varSet))
	for v := range varSet {
		vars = append(vars, v)
	}
	sort.Strings(vars)

	// Candidate terms: every term in the graph.
	termSet := map[rdf.Term]bool{}
	for _, t := range g.Triples() {
		termSet[t.S] = true
		termSet[t.P] = true
		termSet[t.O] = true
	}
	terms := make([]rdf.Term, 0, len(termSet))
	for t := range termSet {
		terms = append(terms, t)
	}

	var out []sparql.Binding
	var rec func(i int, b sparql.Binding)
	rec = func(i int, b sparql.Binding) {
		if i == len(vars) {
			for _, tp := range patterns {
				tri := rdf.Triple{
					S: substitute(tp.S, b),
					P: substitute(tp.P, b),
					O: substitute(tp.O, b),
				}
				if !g.Has(tri) {
					return
				}
			}
			out = append(out, b.Copy())
			return
		}
		for _, t := range terms {
			b[vars[i]] = t
			rec(i+1, b)
		}
		delete(b, vars[i])
	}
	rec(0, sparql.Binding{})
	return out
}

func substitute(n sparql.Node, b sparql.Binding) rdf.Term {
	if n.IsVar {
		return b[n.Var]
	}
	return n.Term
}

func canonicalize(vars []string, rows []sparql.Binding) []string {
	out := make([]string, 0, len(rows))
	for _, r := range rows {
		var sb strings.Builder
		for _, v := range vars {
			if t, ok := r[v]; ok {
				sb.WriteString(t.String())
			}
			sb.WriteByte('|')
		}
		out = append(out, sb.String())
	}
	sort.Strings(out)
	return out
}

// segmentedTwin copies g into a disk-backed store, compacting halfway
// so the twin answers from a sorted segment and the write delta both.
func segmentedTwin(t *testing.T, g *rdf.Graph) *store.Segmented {
	t.Helper()
	set, err := store.Create(t.TempDir(), g.Dict(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { set.Close() }) //nolint:errcheck // test teardown
	seg, err := set.AddSource("g")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	g.ForEachMatchIDs(0, 0, 0, false, false, false, func(s, p, o rdf.ID) bool {
		seg.InsertIDs(s, p, o)
		if n++; n == g.Size()/2 {
			if err := set.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		return true
	})
	return seg
}

// firstAppearance lists the patterns' variables in order of first
// appearance, reading each pattern S, P, O: the order SELECT * must
// project in.
func firstAppearance(patterns []sparql.TriplePattern) []string {
	var vars []string
	for _, tp := range patterns {
		for _, n := range []sparql.Node{tp.S, tp.P, tp.O} {
			if n.IsVar && !slices.Contains(vars, n.Var) {
				vars = append(vars, n.Var)
			}
		}
	}
	return vars
}

// TestEngineMatchesBruteForce compares the engine against the reference
// on randomly generated small graphs and random 1-3 pattern BGPs, over
// both store backends. Objects are literals or subject IRIs,
// and the three variable names land in any position, so patterns that
// repeat a variable (?a ?b ?a) and joins from object to subject occur
// and can match. SELECT * must list the variables in order of first
// appearance.
func TestEngineMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(20250706))
	repeated := 0
	for trial := 0; trial < 60; trial++ {
		g := rdf.NewGraph()
		nTriples := 3 + rng.Intn(28)
		for i := 0; i < nTriples; i++ {
			o := rdf.Literal(fmt.Sprintf("o%d", rng.Intn(4)))
			if rng.Intn(3) == 0 {
				o = rdf.IRI(fmt.Sprintf("http://s/%d", rng.Intn(4)))
			}
			g.Insert(rdf.Triple{
				S: rdf.IRI(fmt.Sprintf("http://s/%d", rng.Intn(4))),
				P: rdf.IRI(fmt.Sprintf("http://p/%d", rng.Intn(3))),
				O: o,
			})
		}
		nPatterns := 1 + rng.Intn(3)
		patterns := make([]sparql.TriplePattern, nPatterns)
		varNames := []string{"a", "b", "c"}
		node := func(kind int, pool string, n int) sparql.Node {
			if rng.Intn(2) == 0 {
				return sparql.VarNode(varNames[rng.Intn(len(varNames))])
			}
			switch kind {
			case 0:
				return sparql.TermNode(rdf.IRI(fmt.Sprintf("http://%s/%d", pool, rng.Intn(n))))
			default:
				return sparql.TermNode(rdf.Literal(fmt.Sprintf("o%d", rng.Intn(n))))
			}
		}
		for i := range patterns {
			patterns[i] = sparql.TriplePattern{
				S: node(0, "s", 4),
				P: node(0, "p", 3),
				O: node(1, "o", 4),
			}
			if tp := patterns[i]; tp.S.IsVar && tp.O.IsVar && tp.S.Var == tp.O.Var {
				repeated++
			}
		}

		q := &sparql.Query{Limit: -1, Where: &sparql.GroupGraphPattern{Triples: patterns}}
		want := bruteForceBGP(g, patterns)
		for backend, src := range map[string]store.TripleStore{"mem": g, "disk": segmentedTwin(t, g)} {
			label := fmt.Sprintf("trial %d (%s)", trial, backend)
			got, err := federation.Single(src).Eval(q)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if order := firstAppearance(patterns); !slices.Equal(got.Vars, order) {
				t.Fatalf("%s: SELECT * projects %v, first appearance is %v\npatterns: %+v", label, got.Vars, order, patterns)
			}
			rows := make([]sparql.Binding, len(got.Rows))
			for i, r := range got.Rows {
				if r.Used.Len() != 0 {
					t.Fatalf("%s: single-source row carries provenance %v", label, r.Used.Slice())
				}
				rows[i] = r.Binding
			}

			gotC := canonicalize(got.Vars, rows)
			wantC := canonicalize(got.Vars, want)
			if len(gotC) != len(wantC) {
				t.Fatalf("%s: engine %d rows, brute force %d rows\npatterns: %+v",
					label, len(gotC), len(wantC), patterns)
			}
			for i := range gotC {
				if gotC[i] != wantC[i] {
					t.Fatalf("%s: row %d differs:\n engine %s\n brute  %s", label, i, gotC[i], wantC[i])
				}
			}
		}
	}
	if repeated == 0 {
		t.Fatal("no pattern repeated a variable across subject and object; the seed no longer covers that case")
	}
}

func BenchmarkBGPJoin(b *testing.B) {
	g := rdf.NewGraph()
	for i := 0; i < 2000; i++ {
		s := rdf.IRI(fmt.Sprintf("http://e/%d", i))
		g.Insert(rdf.Triple{S: s, P: rdf.IRI("http://p/knows"), O: rdf.IRI(fmt.Sprintf("http://e/%d", (i+1)%2000))})
		g.Insert(rdf.Triple{S: s, P: rdf.IRI("http://p/name"), O: rdf.Literal(fmt.Sprintf("entity-%d", i))})
	}
	q, err := sparql.Parse(`SELECT ?n WHERE {
		?a <http://p/name> "entity-500" .
		?a <http://p/knows> ?b .
		?b <http://p/knows> ?c .
		?c <http://p/name> ?n .
	}`)
	if err != nil {
		b.Fatal(err)
	}
	fed := federation.Single(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fed.Eval(q)
		if err != nil || len(res.Rows) != 1 {
			b.Fatalf("rows=%d err=%v", len(res.Rows), err)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	const q = `PREFIX ex: <http://ex/> SELECT DISTINCT ?x ?y WHERE {
		?x ex:p ?y . FILTER(?y > 3 && CONTAINS(STR(?x), "e"))
		OPTIONAL { ?x ex:q ?z . }
	} ORDER BY DESC(?y) LIMIT 10`
	for i := 0; i < b.N; i++ {
		if _, err := sparql.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}
