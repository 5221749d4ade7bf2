package sparql

import (
	"fmt"

	"alex/internal/rdf"
)

// ConstructQuery is a parsed CONSTRUCT query: a triple template
// instantiated once per solution of the WHERE clause. ALEX pipelines
// use it to materialize derived triples — most naturally owl:sameAs
// links or vocabulary-mapped copies of matched data.
type ConstructQuery struct {
	Template []TriplePattern
	Where    *GroupGraphPattern
	Limit    int
	Prefixes map[string]string
}

// ParseConstruct parses a CONSTRUCT query:
//
//	CONSTRUCT { template } WHERE { pattern } [LIMIT n]
func ParseConstruct(query string) (*ConstructQuery, error) {
	toks, err := lex(query)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, prefixes: map[string]string{}}

	for p.cur().kind == tokKeyword && p.cur().text == "PREFIX" {
		p.next()
		name, err := p.expect(tokPName, "prefix name")
		if err != nil {
			return nil, err
		}
		iri, err := p.expect(tokIRI, "prefix IRI")
		if err != nil {
			return nil, err
		}
		p.prefixes[trimColon(name.text)] = iri.text
	}

	if err := p.expectKeyword("CONSTRUCT"); err != nil {
		return nil, err
	}
	tmplGroup, err := p.group()
	if err != nil {
		return nil, err
	}
	if len(tmplGroup.Filters) > 0 || len(tmplGroup.Optionals) > 0 || len(tmplGroup.Unions) > 0 {
		return nil, fmt.Errorf("sparql: CONSTRUCT template must contain only triples")
	}
	if p.cur().kind == tokKeyword && p.cur().text == "WHERE" {
		p.next()
	}
	where, err := p.group()
	if err != nil {
		return nil, err
	}
	q := &ConstructQuery{Template: tmplGroup.Triples, Where: where, Limit: -1, Prefixes: p.prefixes}
	if p.cur().kind == tokKeyword && p.cur().text == "LIMIT" {
		p.next()
		n, err := p.expect(tokNumber, "limit count")
		if err != nil {
			return nil, err
		}
		q.Limit = atoiStrict(n.text)
		if q.Limit < 0 {
			return nil, fmt.Errorf("sparql: invalid LIMIT %q", n.text)
		}
	}
	if p.cur().kind != tokEOF {
		return nil, fmt.Errorf("sparql: trailing input at %s", p.cur())
	}
	return q, nil
}

func trimColon(s string) string {
	if len(s) > 0 && s[len(s)-1] == ':' {
		return s[:len(s)-1]
	}
	return s
}

// Instantiate returns the template's triples under one solution of the
// WHERE clause. Template triples whose variables are unbound in the
// solution, or which would put a literal in subject position or a
// non-IRI in predicate position, are skipped, per SPARQL semantics.
func (q *ConstructQuery) Instantiate(b Binding) []rdf.Triple {
	var out []rdf.Triple
	for _, tp := range q.Template {
		if tri, ok := instantiate(tp, b); ok {
			out = append(out, tri)
		}
	}
	return out
}

func instantiate(tp TriplePattern, b Binding) (rdf.Triple, bool) {
	s, ok := bindNode(tp.S, b)
	if !ok || s.IsLiteral() {
		return rdf.Triple{}, false
	}
	p, ok := bindNode(tp.P, b)
	if !ok || !p.IsIRI() {
		return rdf.Triple{}, false
	}
	o, ok := bindNode(tp.O, b)
	if !ok {
		return rdf.Triple{}, false
	}
	return rdf.Triple{S: s, P: p, O: o}, true
}

func bindNode(n Node, b Binding) (rdf.Term, bool) {
	if !n.IsVar {
		return n.Term, true
	}
	t, ok := b[n.Var]
	return t, ok
}
