package federation

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"alex/internal/links"
	"alex/internal/rdf"
)

// Helpers of the golden harness (golden_test.go): the canonical
// serialization answers are compared in, and the news world's queries.

// copyOf returns a shallow copy of f, so that a test can hang a plan
// cache or a trace hook of its own on a world without rebuilding it.
func copyOf(f *Federator) *Federator {
	cp := *f
	return &cp
}

// canonicalResult serializes a ResultSet into a form where semantic
// equality is string equality: header, Ask, sorted Degraded (already
// sorted by the engine), and the rows sorted lexicographically with
// each row's bindings in Vars order and its provenance links sorted.
func canonicalResult(rs *ResultSet) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "vars=%v\nask=%v\ndegraded=%v\n", rs.Vars, rs.Ask, rs.Degraded)
	rows := make([]string, 0, len(rs.Rows))
	for _, r := range rs.Rows {
		var rb strings.Builder
		for _, v := range rs.Vars {
			if t, ok := r.Binding[v]; ok {
				fmt.Fprintf(&rb, "?%s=%s|", v, t.String())
			} else {
				fmt.Fprintf(&rb, "?%s=<unbound>|", v)
			}
		}
		rb.WriteString(" used=")
		for _, l := range r.Used.Slice() { // Slice is sorted (E1, E2)
			fmt.Fprintf(&rb, "(%d,%d)", l.E1, l.E2)
		}
		rows = append(rows, rb.String())
	}
	sort.Strings(rows)
	for _, r := range rows {
		sb.WriteString(r)
		sb.WriteString("\n")
	}
	return sb.String()
}

// newsQueries exercises every query shape over the news world.
func newsQueries() map[string]string {
	return map[string]string{
		"join-across-sameas": `SELECT ?article WHERE {
			?p <http://kb/award> "NBA MVP 2013" .
			?article <http://news/about> ?p .
		}`,
		"single-source": `SELECT ?p WHERE { ?p <http://kb/award> "NBA MVP 2013" . }`,
		"selective-first-reorder": `SELECT ?name ?article WHERE {
			?p <http://kb/name> ?name .
			?article <http://news/about> ?p .
			?p <http://kb/award> "NBA MVP 2013" .
		}`,
		"optional-unbound": `SELECT ?p ?name WHERE {
			?p <http://kb/award> ?a .
			OPTIONAL { ?p <http://kb/name> ?name . }
		}`,
		"union": `SELECT ?x WHERE {
			{ ?x <http://kb/award> "NBA MVP 2013" . } UNION { ?x <http://kb/award> "NBA MVP 2003" . }
		}`,
		"filter": `SELECT ?p ?a WHERE {
			?p <http://kb/award> ?a .
			FILTER(?a != "NBA MVP 2003")
		}`,
		"distinct-provenance-merge": `SELECT DISTINCT ?p WHERE {
			?p <http://kb/award> "NBA MVP 2013" .
			?article <http://news/about> ?p .
		}`,
		"order-by": `SELECT ?p ?a WHERE { ?p <http://kb/award> ?a . } ORDER BY ?a`,
		"ask":      `ASK { ?a <http://news/about> ?p . ?p <http://kb/award> "NBA MVP 2013" . }`,
		"aggregate-count": `SELECT ?p (COUNT(?article) AS ?n) WHERE {
			?p <http://kb/award> "NBA MVP 2013" .
			?article <http://news/about> ?p .
		} GROUP BY ?p`,
		"unbound-predicate": `SELECT ?s ?p ?o WHERE { ?s ?p ?o . }`,
		"unbound-predicate-join": `SELECT ?p ?o ?article WHERE {
			?p <http://kb/award> "NBA MVP 2013" .
			?article ?rel ?p .
			?article ?rel ?o .
		}`,
	}
}

// TestEquivalenceIsSensitive guards the harness itself: canonical
// serialization must distinguish result sets that differ in rows,
// provenance, or degradation, or the equality assertions above would
// be vacuous.
func TestEquivalenceIsSensitive(t *testing.T) {
	base := &ResultSet{Vars: []string{"x"}, Rows: []Row{
		{Binding: map[string]rdf.Term{"x": rdf.Literal("a")}, Used: links.NewSet()},
	}}
	rowDiff := &ResultSet{Vars: []string{"x"}, Rows: []Row{
		{Binding: map[string]rdf.Term{"x": rdf.Literal("b")}, Used: links.NewSet()},
	}}
	provDiff := &ResultSet{Vars: []string{"x"}, Rows: []Row{
		{Binding: map[string]rdf.Term{"x": rdf.Literal("a")}, Used: links.NewSet(links.Link{E1: 1, E2: 2})},
	}}
	degradedDiff := &ResultSet{Vars: []string{"x"}, Rows: base.Rows, Degraded: []string{"ds2"}}
	unboundDiff := &ResultSet{Vars: []string{"x"}, Rows: []Row{
		{Binding: map[string]rdf.Term{}, Used: links.NewSet()},
	}}
	for name, other := range map[string]*ResultSet{
		"row":      rowDiff,
		"prov":     provDiff,
		"degraded": degradedDiff,
		"unbound":  unboundDiff,
	} {
		if canonicalResult(base) == canonicalResult(other) {
			t.Errorf("canonicalResult conflates base with %s-differing result", name)
		}
	}
}
