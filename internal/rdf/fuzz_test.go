// Native fuzz target for the N-Triples parser. It consumes untrusted
// dataset files (cmd/alexd -ds1/-ds2/-links, cmd/alexbench's file
// mode), so it must
// never panic, whatever the input. The target also checks the
// serializer round-trip: every triple a valid document yields must
// re-serialize to a line the parser accepts and maps to the same
// triple — the property /links?format=ntriples output relies on.
package rdf

import (
	"strings"
	"testing"
)

func FuzzNTriples(f *testing.F) {
	for _, seed := range []string{
		"<http://a> <http://p> <http://b> .\n",
		`<http://a> <http://p> "lit" .`,
		`<http://a> <http://p> "hi"@en .`,
		`<http://a> <http://p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .`,
		`_:b0 <http://p> "x" .`,
		`<http://a> <http://p> "tab\there \"q\" \\ \n" .`,
		"<http://a> <http://p> \"\\u00e9\\U0001F600\" .",
		"# a comment\n\n<http://a> <http://p> <http://b> .",
		`<http://a> <http://p> "unterminated .`,
		`<http://a> <http://p> "\u12" .`,
		"\x00\xff<>",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data string) {
		g := NewGraph()
		if _, err := ReadNTriples(strings.NewReader(data), g); err != nil {
			return // rejecting bad input is fine; panicking is not
		}
		for _, tr := range g.Triples() {
			line := tr.String()
			back, err := ParseTripleLine(line)
			if err != nil {
				t.Fatalf("round-trip parse of %q: %v", line, err)
			}
			if back != tr {
				t.Fatalf("round-trip changed the triple: %#v -> %#v (via %q)", tr, back, line)
			}
		}
	})
}
