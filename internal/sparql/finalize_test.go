package sparql

import (
	"math/rand"
	"reflect"
	"testing"

	"alex/internal/rdf"
)

// encodeBindings interns the rows' terms into d and returns them as the
// ID-form solutions Finalize reads.
func encodeBindings(d *rdf.Dict, vars []string, rows []Binding) Solutions {
	s := Solutions{Vars: vars, N: len(rows), IDs: make([]rdf.ID, 0, len(rows)*len(vars))}
	for _, b := range rows {
		for _, v := range vars {
			id := rdf.NoID
			if t, ok := b[v]; ok {
				id = d.Intern(t)
			}
			s.IDs = append(s.IDs, id)
		}
	}
	return s
}

// TestDistinctSeparatesNULSplitRows: two distinct rows whose rendered
// terms concatenate to the same bytes around a NUL separator (IRIs may
// contain NUL) must both survive DISTINCT; a true duplicate must not.
func TestDistinctSeparatesNULSplitRows(t *testing.T) {
	q := &Query{Vars: []string{"a", "b"}, Distinct: true, Limit: -1}
	left := Binding{"a": rdf.IRI("x"), "b": rdf.IRI("y>\x00<z")}
	right := Binding{"a": rdf.IRI("x>\x00<y"), "b": rdf.IRI("z")}
	d := rdf.NewDict()
	proj := new(Scratch).Finalize(q, d, encodeBindings(d, q.Vars, []Binding{left, right, left}))
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
		proj := new(Scratch).Finalize(q, d, encodeBindings(d, q.Vars, rows))
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

// TestGroupsFollowProjectedTuples: over rows drawn from a few IDs, so
// that tuples repeat and hash slots collide, two output rows share a
// group exactly when they project onto the same IDs, groups are
// numbered by first appearance, and a group's members are every input
// row with its tuple, ascending — unprojected columns and unbound cells
// included in the draw.
func TestGroupsFollowProjectedTuples(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vars := []string{"a", "b", "c"}
	for trial := 0; trial < 300; trial++ {
		sols := Solutions{Vars: vars, N: 1 + rng.Intn(80)}
		for i := 0; i < sols.N*len(vars); i++ {
			sols.IDs = append(sols.IDs, rdf.ID(rng.Intn(4))) // 0 is rdf.NoID
		}
		q := &Query{Vars: []string{"a", "b", "x"}, Limit: -1, Offset: rng.Intn(5)}
		if rng.Intn(2) == 0 {
			q.Limit = rng.Intn(sols.N + 1)
		}
		proj := new(Scratch).Finalize(q, rdf.NewDict(), sols)
		tuple := func(i int) [2]rdf.ID { return [2]rdf.ID{sols.IDs[i*3], sols.IDs[i*3+1]} }
		first := map[[2]rdf.ID]int32{}
		for k, i := range proj.keep {
			g, ok := first[tuple(int(i))]
			if !ok {
				g = int32(len(first))
				first[tuple(int(i))] = g
			}
			if proj.Group[k] != g {
				t.Fatalf("trial %d: row %d (input %d) in group %d, want %d", trial, k, i, proj.Group[k], g)
			}
		}
		want := make([][]int32, len(first))
		for i := 0; i < sols.N; i++ {
			if g, ok := first[tuple(i)]; ok {
				want[g] = append(want[g], int32(i))
			}
		}
		if len(proj.keep) > 0 && !reflect.DeepEqual(proj.Members, want) {
			t.Fatalf("trial %d: members %v, want %v", trial, proj.Members, want)
		}
	}
}
