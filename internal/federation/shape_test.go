package federation

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"alex/internal/links"
	"alex/internal/rdf"
	"alex/internal/sparql"
	"alex/internal/synth"
)

// The shape-keyed plan cache serves a text from a plan made from
// another text of its shape, with the text's own constants bound. The
// differential test here holds that to the uncached path: every text is
// answered by a federator with no cache and by one whose cache a
// sibling text — same shape, other constants — has primed, and the two
// must agree on the answer rows in order, their provenance, the join
// orders executed and the error.

// outcome is what one evaluation of a text showed.
type outcome struct {
	err    string
	rows   string
	orders []string
}

// exactResult renders a ResultSet with its rows in the order they came:
// both paths run one executor and one finalizer, so even the order of
// rows ORDER BY leaves open must agree.
func exactResult(rs *ResultSet) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "vars=%v ask=%v\n", rs.Vars, rs.Ask)
	for _, r := range rs.Rows {
		for _, v := range rs.Vars {
			if t, ok := r.Binding[v]; ok {
				fmt.Fprintf(&sb, "?%s=%s|", v, t.String())
			} else {
				fmt.Fprintf(&sb, "?%s=<unbound>|", v)
			}
		}
		sb.WriteString(" used=")
		for _, l := range r.Used.Slice() {
			fmt.Fprintf(&sb, "(%d,%d)", l.E1, l.E2)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// answer evaluates text on a traced copy of f. With pc non-nil the copy
// uses pc, and prime is asked first; its answer is not looked at.
func answer(ctx context.Context, f *Federator, pc *PlanCache, prime, text string) outcome {
	fo, orders := traced(f)
	if pc != nil {
		fo.SetPlanCache(pc)
		_, _ = fo.QueryContext(ctx, prime)
		orders()
	}
	var o outcome
	rs, err := fo.QueryContext(ctx, text)
	if err != nil {
		o.err = err.Error()
	} else {
		o.rows = exactResult(rs)
	}
	o.orders = orders()
	return o
}

// shapeKey is text's shape key, "" when the text does not lex.
func shapeKey(text string) string {
	s, ok := sparql.Shape{}.Scan(text)
	if !ok {
		return ""
	}
	return string(s.Key)
}

// assertShapeCacheAgrees answers text uncached and from a cache primed
// with sibling, and fails the test where the two differ. When sibling
// parses and shares text's shape, text must also have been a hit.
func assertShapeCacheAgrees(t *testing.T, f *Federator, sibling, text string) {
	t.Helper()
	ctx := context.Background()
	want := answer(ctx, f, nil, "", text)
	pc := NewPlanCache(4)
	got := answer(ctx, f, pc, sibling, text)
	if got.err != want.err {
		t.Errorf("error %q from the cache primed by %q, %q uncached", got.err, sibling, want.err)
	}
	if got.rows != want.rows {
		t.Errorf("primed by %q, the cache answers\n%s\nuncached\n%s", sibling, got.rows, want.rows)
	}
	if !slices.Equal(got.orders, want.orders) {
		t.Errorf("primed by %q, the cache executed %v, uncached %v", sibling, got.orders, want.orders)
	}
	if _, err := sparql.Parse(sibling); err == nil && shapeKey(sibling) == shapeKey(text) {
		if hits, _ := pc.Stats(); hits != 1 {
			t.Errorf("%d plan cache hits: the sibling's plan did not serve the text", hits)
		}
	}
}

// constSpan is where one constant of a text stands: text[start:end] is
// what sparql.Shape.Consts holds for it; kind is '<' for an IRI, '"'
// for a string, '@' for a language tag, '0' for a number.
type constSpan struct {
	start, end int
	kind       byte
}

func identByte(text string, i int) bool {
	if i < 0 || i >= len(text) {
		return false
	}
	c := text[i]
	return c == '_' || c == '-' || c == ':' || c == '.' || c == '?' || c == '$' ||
		c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

// constSpans finds text's constants, in order, from its shape: each is
// the first occurrence after the previous one of the constant in its
// delimiters, or, for a number, standing alone.
func constSpans(t testing.TB, text string) []constSpan {
	t.Helper()
	s, ok := sparql.Shape{}.Scan(text)
	if !ok {
		return nil
	}
	var out []constSpan
	at := 0
	for _, c := range s.Consts {
		best := constSpan{start: -1}
		try := func(start int, kind byte) {
			if best.start < 0 || start < best.start {
				best = constSpan{start: start, end: start + len(c), kind: kind}
			}
		}
		for _, d := range []struct {
			open, close string
			kind        byte
		}{{"<", ">", '<'}, {`"`, `"`, '"'}, {"@", "", '@'}} {
			if i := strings.Index(text[at:], d.open+c+d.close); i >= 0 {
				try(at+i+len(d.open), d.kind)
			}
		}
		if _, err := strconv.ParseFloat(c, 64); err == nil {
			for i := at; ; {
				j := strings.Index(text[i:], c)
				if j < 0 {
					break
				}
				p := i + j
				if !identByte(text, p-1) && !identByte(text, p+len(c)) {
					try(p, '0')
					break
				}
				i = p + 1
			}
		}
		if best.start < 0 {
			t.Fatalf("constant %q of %q not found", c, text)
		}
		out = append(out, best)
		at = best.end
	}
	return out
}

// siblingOf returns text with every constant replaced by another of its
// kind: IRIs and strings by the next one of the pools, language tags
// swapped, numbers moved. It fails the test unless the result has
// text's shape.
func siblingOf(t testing.TB, text string, iris, strs []string) string {
	t.Helper()
	next := func(pool []string, old string) string {
		i := slices.Index(pool, old)
		for k := 1; k <= len(pool); k++ {
			if alt := pool[(i+k)%len(pool)]; alt != old {
				return alt
			}
		}
		return old + "x"
	}
	var sb strings.Builder
	at := 0
	for _, sp := range constSpans(t, text) {
		old := text[sp.start:sp.end]
		sb.WriteString(text[at:sp.start])
		switch sp.kind {
		case '<':
			sb.WriteString(next(iris, old))
		case '"':
			sb.WriteString(next(strs, old))
		case '@':
			if old == "fr" {
				sb.WriteString("en")
			} else {
				sb.WriteString("fr")
			}
		default:
			if n, err := strconv.Atoi(old); err == nil {
				sb.WriteString(strconv.Itoa(n + 7))
			} else {
				sb.WriteString(old + "5")
			}
		}
		at = sp.end
	}
	sb.WriteString(text[at:])
	sib := sb.String()
	if shapeKey(sib) != shapeKey(text) {
		t.Fatalf("sibling %q does not have the shape of %q", sib, text)
	}
	return sib
}

// constPools collects the IRIs and strings the texts hold as constants.
func constPools(t testing.TB, texts []string) (iris, strs []string) {
	t.Helper()
	for _, text := range texts {
		for _, sp := range constSpans(t, text) {
			c := text[sp.start:sp.end]
			switch {
			case sp.kind == '<' && !slices.Contains(iris, c):
				iris = append(iris, c)
			case sp.kind == '"' && !slices.Contains(strs, c):
				strs = append(strs, c)
			}
		}
	}
	sort.Strings(iris)
	sort.Strings(strs)
	return iris, strs
}

// assertGeneratedSiblings runs the differential over every query of a
// world, each primed by a sibling made from the world's own constants.
func assertGeneratedSiblings(t *testing.T, f *Federator, queries map[string]string) {
	t.Helper()
	var texts []string
	for _, q := range queries {
		texts = append(texts, q)
	}
	iris, strs := constPools(t, texts)
	for name, q := range queries {
		t.Run(name, func(t *testing.T) {
			assertShapeCacheAgrees(t, f, siblingOf(t, q, iris, strs), q)
		})
	}
}

// literalWorld holds the literal forms a shape can lift: language
// tags, typed and bare numbers, a string with escapes, across two
// sources joined by one sameAs link.
func literalWorld(tb testing.TB) *Federator {
	tb.Helper()
	d := rdf.NewDict()
	a := rdf.NewGraphWithDict(d)
	b := rdf.NewGraphWithDict(d)
	iri := func(s string) rdf.Term { return rdf.IRI("http://t/" + s) }
	a.Insert(rdf.Triple{S: iri("cat"), P: iri("label"), O: rdf.LangLiteral("chat", "fr")})
	a.Insert(rdf.Triple{S: iri("cat"), P: iri("label"), O: rdf.LangLiteral("cat", "en")})
	a.Insert(rdf.Triple{S: iri("dog"), P: iri("label"), O: rdf.LangLiteral("chien", "fr")})
	a.Insert(rdf.Triple{S: iri("cat"), P: iri("legs"), O: rdf.TypedLiteral("4", rdf.XSDInteger)})
	a.Insert(rdf.Triple{S: iri("bird"), P: iri("legs"), O: rdf.TypedLiteral("2", rdf.XSDInteger)})
	a.Insert(rdf.Triple{S: iri("cat"), P: iri("weight"), O: rdf.TypedLiteral("4.5", rdf.XSDDecimal)})
	a.Insert(rdf.Triple{S: iri("dog"), P: iri("says"), O: rdf.Literal(`say "woof"`)})
	a.Insert(rdf.Triple{S: iri("cat"), P: iri("says"), O: rdf.Literal("purr")})
	b.Insert(rdf.Triple{S: rdf.IRI("http://u/felix"), P: rdf.IRI("http://u/owner"), O: rdf.Literal("ann")})
	b.Insert(rdf.Triple{S: rdf.IRI("http://u/rex"), P: rdf.IRI("http://u/owner"), O: rdf.Literal("bob")})
	f := New(d)
	if err := f.AddSource("a", a); err != nil {
		tb.Fatal(err)
	}
	if err := f.AddSource("b", b); err != nil {
		tb.Fatal(err)
	}
	e1, _ := d.Lookup(iri("cat"))
	e2, _ := d.Lookup(rdf.IRI("http://u/felix"))
	f.SetLinks(links.NewSet(links.Link{E1: e1, E2: e2}))
	return f
}

// literalCases are hand-written (sibling, text) pairs: prefixed names,
// OPTIONAL and UNION, language-tagged and typed literals, escapes,
// FILTER constants, LIMIT and OFFSET, and constants the parser refuses
// in their position under a shape whose sibling it accepted.
var literalCases = []struct{ name, sibling, text string }{
	{"prefix", `PREFIX t: <http://t/> SELECT ?s WHERE { ?s t:label "chien"@fr . }`,
		`PREFIX t: <http://t/> SELECT ?s WHERE { ?s t:label "chat"@fr . }`},
	{"prefix-other-namespace", `PREFIX t: <http://u/> SELECT ?s WHERE { ?s t:owner "bob" . }`,
		`PREFIX t: <http://t/> SELECT ?s WHERE { ?s t:says "purr" . }`},
	{"lang-tag", `SELECT ?s WHERE { ?s <http://t/label> "chat"@fr . }`,
		`SELECT ?s WHERE { ?s <http://t/label> "cat"@en . }`},
	{"typed", `SELECT ?s WHERE { ?s <http://t/legs> "2"^^<http://www.w3.org/2001/XMLSchema#integer> . }`,
		`SELECT ?s WHERE { ?s <http://t/legs> "4"^^<http://www.w3.org/2001/XMLSchema#integer> . }`},
	{"integer", `SELECT ?s WHERE { ?s <http://t/legs> 2 . }`, `SELECT ?s WHERE { ?s <http://t/legs> 4 . }`},
	{"integer-for-decimal", `SELECT ?s WHERE { ?s <http://t/weight> 4 . }`, `SELECT ?s WHERE { ?s <http://t/weight> 4.5 . }`},
	{"escaped", `SELECT ?s WHERE { ?s <http://t/says> "purr" . }`, `SELECT ?s WHERE { ?s <http://t/says> "say \"woof\"" . }`},
	{"subject-across-link", `SELECT ?o WHERE { <http://t/dog> <http://u/owner> ?o . }`,
		`SELECT ?o WHERE { <http://t/cat> <http://u/owner> ?o . }`},
	{"optional", `SELECT ?s ?o WHERE { ?s <http://t/legs> 2 . OPTIONAL { ?s <http://u/owner> ?o . } }`,
		`SELECT ?s ?o WHERE { ?s <http://t/legs> 4 . OPTIONAL { ?s <http://u/owner> ?o . } }`},
	{"union", `SELECT ?s WHERE { { ?s <http://t/says> "purr" . } UNION { ?s <http://t/legs> 2 . } }`,
		`SELECT ?s WHERE { { ?s <http://t/says> "say \"woof\"" . } UNION { ?s <http://t/legs> 4 . } }`},
	{"filter-number", `SELECT ?s ?n WHERE { ?s <http://t/legs> ?n . FILTER(?n > 3) }`,
		`SELECT ?s ?n WHERE { ?s <http://t/legs> ?n . FILTER(?n > 1) }`},
	{"filter-string-function", `SELECT ?s WHERE { ?s <http://t/says> ?w . FILTER(CONTAINS(?w, "ur")) }`,
		`SELECT ?s WHERE { ?s <http://t/says> ?w . FILTER(CONTAINS(?w, "oo")) }`},
	{"filter-iri", `SELECT ?s WHERE { ?s <http://t/says> ?w . FILTER(?s != <http://t/dog>) }`,
		`SELECT ?s WHERE { ?s <http://t/says> ?w . FILTER(?s != <http://t/cat>) }`},
	{"filter-lang", `SELECT ?s WHERE { ?s <http://t/label> ?l . FILTER(!(?l = "chat"@fr)) }`,
		`SELECT ?s WHERE { ?s <http://t/label> ?l . FILTER(!(?l = "chien"@fr)) }`},
	{"limit-offset", `SELECT ?s ?l WHERE { ?s <http://t/label> ?l . } ORDER BY ?l LIMIT 1 OFFSET 0`,
		`SELECT ?s ?l WHERE { ?s <http://t/label> ?l . } ORDER BY DESC(?l) LIMIT 2 OFFSET 1`},
	{"limit-moves", `SELECT ?s ?l WHERE { ?s <http://t/label> ?l . } ORDER BY ?l LIMIT 1 OFFSET 0`,
		`SELECT ?s ?l WHERE { ?s <http://t/label> ?l . } ORDER BY ?l LIMIT 2 OFFSET 1`},
	{"ask", `ASK { ?s <http://t/legs> 3 . }`, `ASK { ?s <http://t/legs> 4 . }`},
	{"decimal-limit", `SELECT ?s WHERE { ?s <http://t/legs> ?n . } LIMIT 2`, `SELECT ?s WHERE { ?s <http://t/legs> ?n . } LIMIT 1.5`},
	{"negative-offset", `SELECT ?s WHERE { ?s <http://t/legs> ?n . } OFFSET 1`, `SELECT ?s WHERE { ?s <http://t/legs> ?n . } OFFSET -1`},
	{"signed-limit", `SELECT ?s WHERE { ?s <http://t/legs> ?n . } LIMIT 1`, `SELECT ?s WHERE { ?s <http://t/legs> ?n . } LIMIT +1`},
	{"invalid-escape", `SELECT ?s WHERE { ?s <http://t/says> "purr" . }`, `SELECT ?s WHERE { ?s <http://t/says> "pu\q" . }`},
	{"unterminated", `SELECT ?s WHERE { ?s <http://t/says> "purr" . }`, `SELECT ?s WHERE { ?s <http://t/says> "purr . }`},
	{"unknown-prefix", `PREFIX t: <http://t/> SELECT ?s WHERE { ?s t:says "purr" . }`, `SELECT ?s WHERE { ?s t:says "purr" . }`},
}

// objectsOf returns the distinct lexical values of pred's objects in
// f's first source, sorted.
func objectsOf(tb testing.TB, f *Federator, pred rdf.Term) []string {
	tb.Helper()
	pid, ok := f.dict.Lookup(pred)
	if !ok {
		tb.Fatalf("predicate %v missing", pred)
	}
	seen := map[string]bool{}
	f.sources[0].Graph.ForEachMatchIDs(0, pid, 0, false, true, false, func(_, _, o rdf.ID) bool {
		seen[f.dict.Term(o).Value] = true
		return true
	})
	var out []string
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// joinShapeTexts rebuilds bench/e2e's join_disk mix over f the way its
// joinTexts does, from synth's predicates, a few texts per shape
// variant, each paired with the next text of its variant as sibling.
func joinShapeTexts(t *testing.T, f *Federator) (texts, siblings []string) {
	t.Helper()
	cats, dates := objectsOf(t, f, synth.P1Cat), objectsOf(t, f, synth.P1Birth)
	sel := func(i int, ord string) string {
		return fmt.Sprintf("SELECT ?e ?l ?n ?b ?h WHERE { ?e <%s> %q . ?e <%s> ?l . ?e <%s> ?n . ?e <%s> ?b . OPTIONAL { ?e <%s> ?h . } } ORDER BY %s",
			synth.P1Cat.Value, cats[i%len(cats)], synth.P1Label.Value, synth.P2Name.Value, synth.P2Born.Value, synth.P2Place.Value, ord)
	}
	filter := func(i int) string {
		return fmt.Sprintf("SELECT ?e ?l ?b WHERE { ?e <%s> \"Thing\" . ?e <%s> ?l . ?e <%s> ?b . FILTER(?b > \"%s\"^^<%s>) } ORDER BY ?b ?e ?l LIMIT %d",
			synth.P1Type.Value, synth.P1Label.Value, synth.P2Born.Value, dates[(i*7)%len(dates)], rdf.XSDDate, 20+i%17)
	}
	wide := func(i int, ord string, offset bool) string {
		text := fmt.Sprintf("SELECT ?e ?l ?h WHERE { ?e <%s> ?l . ?e <%s> ?h . } ORDER BY %s LIMIT %d",
			synth.P1Label.Value, synth.P2Place.Value, ord, 50+i%76)
		if offset {
			text += fmt.Sprintf(" OFFSET %d", 10*(1+i%3))
		}
		return text
	}
	for i := 0; i < 3; i++ {
		for _, ord := range []string{"?l ?e ?n ?b ?h", "DESC(?b) ?e ?l ?n ?h"} {
			texts, siblings = append(texts, sel(i, ord)), append(siblings, sel(i+1, ord))
		}
		texts, siblings = append(texts, filter(i)), append(siblings, filter(i+1))
		for _, ord := range []string{"?l ?e ?h", "DESC(?h) ?e ?l"} {
			for _, off := range []bool{false, true} {
				texts, siblings = append(texts, wide(i, ord, off)), append(siblings, wide(i+1, ord, off))
			}
		}
	}
	return texts, siblings
}

// TestShapeCacheMatchesUncached is the differential test of the
// shape-keyed plan cache: every golden text, bench/e2e's join_disk
// shapes and the hand-written literal cases, each primed by a sibling
// of its shape, answer, execute and fail exactly as without a cache.
func TestShapeCacheMatchesUncached(t *testing.T) {
	t.Run("news", func(t *testing.T) {
		f, _, _ := newsWorld(t)
		assertGeneratedSiblings(t, f, newsQueries())
	})
	t.Run("chain", func(t *testing.T) {
		f, _ := chainWorld(t)
		assertGeneratedSiblings(t, f, goldenChainQueries())
	})
	for _, p := range []string{"dbpedia-nytimes", "skewed-hub"} {
		t.Run("synth-"+p, func(t *testing.T) {
			assertGeneratedSiblings(t, goldenSynthWorld(t, p), goldenSynthQueries(p))
		})
	}
	t.Run("join_disk", func(t *testing.T) {
		f, _ := joinShapeWorld(t, 0.1)
		texts, siblings := joinShapeTexts(t, f)
		keys := map[string]bool{}
		for i, text := range texts {
			keys[shapeKey(text)] = true
			t.Run(fmt.Sprint(i), func(t *testing.T) {
				assertShapeCacheAgrees(t, f, siblings[i], text)
			})
		}
		// Two sel orders, one filter, two wide orders with and without
		// an OFFSET.
		if len(keys) != 7 {
			t.Errorf("%d shapes among the join texts, want 7", len(keys))
		}
	})
	t.Run("literals", func(t *testing.T) {
		f := literalWorld(t)
		for _, c := range literalCases {
			t.Run(c.name, func(t *testing.T) {
				assertShapeCacheAgrees(t, f, c.sibling, c.text)
			})
		}
	})
}

// TestShapeHitAllocs pins what a hit costs: a one-pattern lookup served
// by the plan another entity's text made allocates no more than an
// exact-text hit does (21 allocations when plans were keyed by text,
// 8 since an evaluation runs in a recycled Scratch). The key is made in
// stack buffers, and the bound pattern table lives in the Scratch.
func TestShapeHitAllocs(t *testing.T) {
	f, _ := joinShapeWorld(t, 0.1)
	fed := copyOf(f)
	pc := NewPlanCache(4)
	fed.SetPlanCache(pc)
	lookup := func(e int) string {
		return fmt.Sprintf("SELECT ?n WHERE { <http://ds1.example.org/resource/E%d> <%s> ?n . }", e, synth.P2Name.Value)
	}
	if rs, err := fed.Query(lookup(1)); err != nil || len(rs.Rows) != 1 {
		t.Fatalf("rows %v, err %v; want one", rs, err)
	}
	query := lookup(0)
	sc := new(Scratch)
	if rs := decodeIn(t, fed, sc, query); len(rs.Rows) != 1 || rs.Rows[0].Used.Len() != 1 {
		t.Fatalf("rows %v; want one row across one link", rs)
	}
	allocs := testing.AllocsPerRun(100, func() { decodeIn(t, fed, sc, query) })
	if allocs > 8 {
		t.Errorf("a shape-keyed hit allocates %v times, want at most 8", allocs)
	}
	if hits, misses := pc.Stats(); misses != 1 || pc.Len() != 1 || hits < 101 {
		t.Errorf("%d hits, %d misses, %d plans: the lookups did not share one plan", hits, misses, pc.Len())
	}
}

// FuzzShapeCache holds the differential property on arbitrary text
// pairs over literalWorld: text answered from a cache that sibling
// primed equals text answered uncached. Evaluations are bounded; a pair
// that runs into the bound on either side proves nothing and is
// skipped.
func FuzzShapeCache(f *testing.F) {
	for _, c := range literalCases {
		f.Add(c.sibling, c.text)
	}
	for _, q := range newsQueries() {
		f.Add(q, q)
	}
	world := literalWorld(f)
	f.Fuzz(func(t *testing.T, sibling, text string) {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		want := answer(ctx, world, nil, "", text)
		got := answer(ctx, world, NewPlanCache(4), sibling, text)
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			t.Skip("evaluation bound reached")
		}
		if got.err != want.err || got.rows != want.rows || !slices.Equal(got.orders, want.orders) {
			t.Fatalf("primed by %q, %q answers\n%+v\nuncached\n%+v", sibling, text, got, want)
		}
	})
}
