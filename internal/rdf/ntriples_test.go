package rdf

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseTripleLineBasic(t *testing.T) {
	cases := []struct {
		in   string
		want Triple
	}{
		{
			`<http://a> <http://p> <http://b> .`,
			Triple{IRI("http://a"), IRI("http://p"), IRI("http://b")},
		},
		{
			`<http://a> <http://p> "lit" .`,
			Triple{IRI("http://a"), IRI("http://p"), Literal("lit")},
		},
		{
			`<http://a> <http://p> "hi"@en .`,
			Triple{IRI("http://a"), IRI("http://p"), LangLiteral("hi", "en")},
		},
		{
			`<http://a> <http://p> "5"^^<` + XSDInteger + `> .`,
			Triple{IRI("http://a"), IRI("http://p"), TypedLiteral("5", XSDInteger)},
		},
		{
			`_:b0 <http://p> "x" .`,
			Triple{Blank("b0"), IRI("http://p"), Literal("x")},
		},
		{
			`<http://a> <http://p> "tab\there \"q\" \\ \n" .`,
			Triple{IRI("http://a"), IRI("http://p"), Literal("tab\there \"q\" \\ \n")},
		},
		{
			`<http://a> <http://p> "é\U0001F600" .`,
			Triple{IRI("http://a"), IRI("http://p"), Literal("é😀")},
		},
	}
	for _, c := range cases {
		got, err := ParseTripleLine(c.in)
		if err != nil {
			t.Errorf("ParseTripleLine(%q) error: %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseTripleLine(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseTripleLineErrors(t *testing.T) {
	bad := []string{
		``,
		`<http://a> <http://p> .`,
		`<http://a> <http://p> "x"`,
		`"lit" <http://p> "x" .`,
		`<http://a> _:b "x" .`,
		`<http://a> <http://p> "unterminated .`,
		`<http://a <http://p> "x" .`,
		`<http://a> <http://p> "x" . trailing`,
		`<http://a> <http://p> "\q" .`,
		`<http://a> <http://p> "\u12" .`,
	}
	for _, in := range bad {
		if _, err := ParseTripleLine(in); err == nil {
			t.Errorf("ParseTripleLine(%q) succeeded, want error", in)
		}
	}
}

func TestReadNTriplesSkipsCommentsAndBlank(t *testing.T) {
	in := `# a comment

<http://a> <http://p> "one" .
   # indented comment
<http://a> <http://p> "two" .
`
	g := NewGraph()
	n, err := ReadNTriples(strings.NewReader(in), g)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || g.Size() != 2 {
		t.Fatalf("read %d triples, graph size %d; want 2, 2", n, g.Size())
	}
}

func TestReadNTriplesReportsLine(t *testing.T) {
	in := "<http://a> <http://p> \"ok\" .\nbroken line\n"
	g := NewGraph()
	_, err := ReadNTriples(strings.NewReader(in), g)
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type = %T, want *ParseError", err)
	}
	if pe.Line != 2 {
		t.Fatalf("error line = %d, want 2", pe.Line)
	}
}

func TestNTriplesRoundTrip(t *testing.T) {
	g := NewGraph()
	g.Insert(Triple{IRI("http://a"), IRI("http://p"), Literal("with \"quotes\" and\nnewline")})
	g.Insert(Triple{IRI("http://a"), IRI("http://q"), LangLiteral("salut", "fr")})
	g.Insert(Triple{IRI("http://b"), IRI("http://p"), TypedLiteral("2024-01-02", XSDDate)})
	g.Insert(Triple{Blank("n1"), IRI("http://p"), IRI("http://b")})
	g.Insert(Triple{IRI("http://a"), IRI("http://r"), Blank("gen-1")})

	var buf bytes.Buffer
	if err := WriteNTriples(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2 := NewGraph()
	if _, err := ReadNTriples(bytes.NewReader(buf.Bytes()), g2); err != nil {
		t.Fatal(err)
	}
	if g2.Size() != g.Size() {
		t.Fatalf("round trip size %d, want %d", g2.Size(), g.Size())
	}
	for _, tri := range g.Triples() {
		if !g2.Has(tri) {
			t.Errorf("round trip lost triple %v", tri)
		}
	}
}

// Property: any literal string survives a serialize/parse round trip.
func TestLiteralEscapeRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		if !strings.Contains(s, "\x00") && strings.ToValidUTF8(s, "") == s {
			tri := Triple{IRI("http://a"), IRI("http://p"), Literal(s)}
			got, err := ParseTripleLine(tri.String())
			return err == nil && got == tri
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
