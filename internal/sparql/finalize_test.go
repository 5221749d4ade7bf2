package sparql

import (
	"math/rand"
	"testing"

	"alex/internal/rdf"
)

// TestDistinctSeparatesNULSplitRows: two distinct rows whose rendered
// terms concatenate to the same bytes around a NUL separator (IRIs may
// contain NUL) must both survive DISTINCT; a true duplicate must not.
func TestDistinctSeparatesNULSplitRows(t *testing.T) {
	q := &Query{Vars: []string{"a", "b"}, Distinct: true, Limit: -1}
	left := Binding{"a": rdf.IRI("x"), "b": rdf.IRI("y>\x00<z")}
	right := Binding{"a": rdf.IRI("x>\x00<y"), "b": rdf.IRI("z")}
	d := rdf.NewDict()
	proj, err := Finalize(q, d, encodeBindings(d, q.Vars, []Binding{left, right, left}))
	if err != nil {
		t.Fatal(err)
	}
	res := proj.Result()
	if len(res.Rows) != 2 {
		t.Fatalf("DISTINCT kept %d rows, want 2: %v", len(res.Rows), res.Rows)
	}
	if res.Rows[0]["b"] != left["b"] || res.Rows[1]["b"] != right["b"] {
		t.Fatalf("DISTINCT kept the wrong rows: %v", res.Rows)
	}
}

// TestDistinctComparesRenderedTerms: DISTINCT's equality is that of the
// N-Triples rendering, not of dictionary IDs. "a" and "a"^^xsd:string
// are two terms, two IDs, and one value; so are a language-tagged
// literal with and without a stray datatype. A key made of raw IDs
// keeps both rows of each pair.
func TestDistinctComparesRenderedTerms(t *testing.T) {
	q := &Query{Vars: []string{"v"}, Distinct: true, Limit: -1}
	plain, typed := rdf.Literal("a"), rdf.TypedLiteral("a", rdf.XSDString)
	tagged := rdf.LangLiteral("a", "en")
	taggedTyped := rdf.Term{Kind: rdf.KindLiteral, Value: "a", Lang: "en", Datatype: rdf.XSDString}
	if plain.String() != typed.String() || tagged.String() != taggedTyped.String() {
		t.Fatal("the pairs no longer render alike; the test proves nothing")
	}
	for _, rows := range [][]Binding{
		{{"v": plain}, {"v": typed}, {"v": tagged}, {"v": taggedTyped}},
		// The plain forms absent from the dictionary altogether.
		{{"v": typed}, {"v": typed}, {"v": taggedTyped}, {"v": rdf.IRI("a")}, {"v": taggedTyped}},
	} {
		d := rdf.NewDict()
		proj, err := Finalize(q, d, encodeBindings(d, q.Vars, rows))
		if err != nil {
			t.Fatal(err)
		}
		res := proj.Result()
		seen := map[string]bool{}
		for _, r := range rows {
			seen[r["v"].String()] = true
		}
		if len(res.Rows) != len(seen) {
			t.Fatalf("DISTINCT kept %d rows of %v, want %d", len(res.Rows), rows, len(seen))
		}
		if res.Rows[0]["v"] != rows[0]["v"] {
			t.Fatalf("DISTINCT kept %v first, want the first row's own term %v", res.Rows[0]["v"], rows[0]["v"])
		}
	}
}

// TestCanonicalIDsMatchRendering: over terms drawn so that collisions
// are common, two IDs share a representative exactly when their terms
// render alike.
func TestCanonicalIDsMatchRendering(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pick := func(xs ...string) string { return xs[rng.Intn(len(xs))] }
	d := rdf.NewDict()
	var ids []rdf.ID
	for i := 0; i < 400; i++ {
		ids = append(ids, d.Intern(rdf.Term{
			Kind:     rdf.TermKind(rng.Intn(3)),
			Value:    pick("a", "b", "a\"@en", ""),
			Datatype: pick("", "", rdf.XSDString, rdf.XSDInteger),
			Lang:     pick("", "", "en", "de"),
		}))
	}
	canon := canonicalIDs{d: d}
	for _, a := range ids {
		for _, b := range ids {
			same := d.Term(a).String() == d.Term(b).String()
			if got := canon.of(a) == canon.of(b); got != same {
				t.Fatalf("%#v and %#v: canonical IDs equal = %v, renderings equal = %v", d.Term(a), d.Term(b), got, same)
			}
		}
	}
}
