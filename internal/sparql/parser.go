package sparql

import (
	"fmt"
	"strings"

	"alex/internal/rdf"
)

// Parse parses a SPARQL SELECT or ASK query from the supported subset:
// basic graph patterns with OPTIONAL, UNION and FILTER, and the
// DISTINCT, ORDER BY, LIMIT and OFFSET modifiers.
func Parse(query string) (*Query, error) {
	toks, err := lex(query)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, prefixes: map[string]string{}}
	q, err := p.query()
	if err != nil {
		return nil, err
	}
	return q, nil
}

type parser struct {
	toks     []token
	pos      int
	prefixes map[string]string
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tokKeyword || t.text != kw {
		return fmt.Errorf("sparql: expected %s, got %s", kw, t)
	}
	return nil
}

func (p *parser) expect(kind tokenKind, what string) (token, error) {
	t := p.next()
	if t.kind != kind {
		return t, fmt.Errorf("sparql: expected %s, got %s", what, t)
	}
	return t, nil
}

func (p *parser) query() (*Query, error) {
	q := &Query{Limit: -1, Prefixes: p.prefixes}

	for p.cur().kind == tokKeyword && p.cur().text == "PREFIX" {
		p.next()
		name, err := p.expect(tokPName, "prefix name")
		if err != nil {
			return nil, err
		}
		if !strings.HasSuffix(name.text, ":") {
			return nil, fmt.Errorf("sparql: prefix name %q must end with ':'", name.text)
		}
		iri, err := p.expect(tokIRI, "prefix IRI")
		if err != nil {
			return nil, err
		}
		p.prefixes[strings.TrimSuffix(name.text, ":")] = iri.text
	}

	if p.cur().kind == tokKeyword && p.cur().text == "ASK" {
		p.next()
		q.Form = FormAsk
	} else {
		if err := p.expectKeyword("SELECT"); err != nil {
			return nil, err
		}
		if p.cur().kind == tokKeyword && p.cur().text == "DISTINCT" {
			p.next()
			q.Distinct = true
		}
		if err := p.projection(q); err != nil {
			return nil, err
		}
	}

	if p.cur().kind == tokKeyword && p.cur().text == "WHERE" {
		p.next()
	}
	where, err := p.group()
	if err != nil {
		return nil, err
	}
	q.Where = where

	for {
		t := p.cur()
		if t.kind != tokKeyword {
			break
		}
		switch t.text {
		case "ORDER":
			p.next()
			if err := p.expectKeyword("BY"); err != nil {
				return nil, err
			}
			for {
				k, ok, err := p.orderKey()
				if err != nil {
					return nil, err
				}
				if !ok {
					break
				}
				q.OrderBy = append(q.OrderBy, k)
			}
			if len(q.OrderBy) == 0 {
				return nil, fmt.Errorf("sparql: empty ORDER BY")
			}
		case "LIMIT":
			p.next()
			n, err := p.expect(tokNumber, "limit count")
			if err != nil {
				return nil, err
			}
			q.Limit, q.limitLift = atoiStrict(n.text), lift(liftNumber, n)
			if q.Limit < 0 {
				return nil, fmt.Errorf("sparql: invalid LIMIT %q", n.text)
			}
		case "OFFSET":
			p.next()
			n, err := p.expect(tokNumber, "offset count")
			if err != nil {
				return nil, err
			}
			q.Offset, q.offsetLift = atoiStrict(n.text), lift(liftNumber, n)
			if q.Offset < 0 {
				return nil, fmt.Errorf("sparql: invalid OFFSET %q", n.text)
			}
		default:
			return nil, fmt.Errorf("sparql: unexpected %s", t)
		}
	}

	if p.cur().kind != tokEOF {
		return nil, fmt.Errorf("sparql: trailing input at %s", p.cur())
	}
	return q, nil
}

// projection parses the SELECT clause: '*' or plain variables.
func (p *parser) projection(q *Query) error {
	if p.cur().kind == tokStar {
		p.next()
		return nil
	}
	for p.cur().kind == tokVar {
		q.Vars = append(q.Vars, p.next().text)
	}
	if len(q.Vars) == 0 {
		return fmt.Errorf("sparql: expected projection, got %s", p.cur())
	}
	return nil
}

func atoiStrict(s string) int {
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

func (p *parser) orderKey() (OrderKey, bool, error) {
	t := p.cur()
	switch {
	case t.kind == tokVar:
		p.next()
		return OrderKey{Var: t.text}, true, nil
	case t.kind == tokKeyword && (t.text == "ASC" || t.text == "DESC"):
		p.next()
		if _, err := p.expect(tokLParen, "("); err != nil {
			return OrderKey{}, false, err
		}
		v, err := p.expect(tokVar, "variable")
		if err != nil {
			return OrderKey{}, false, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return OrderKey{}, false, err
		}
		return OrderKey{Var: v.text, Desc: t.text == "DESC"}, true, nil
	default:
		return OrderKey{}, false, nil
	}
}

func (p *parser) group() (*GroupGraphPattern, error) {
	if _, err := p.expect(tokLBrace, "{"); err != nil {
		return nil, err
	}
	g := &GroupGraphPattern{}
	for {
		t := p.cur()
		switch {
		case t.kind == tokRBrace:
			p.next()
			return g, nil
		case t.kind == tokKeyword && t.text == "FILTER":
			p.next()
			e, err := p.filterExpr()
			if err != nil {
				return nil, err
			}
			g.Filters = append(g.Filters, e)
		case t.kind == tokKeyword && t.text == "OPTIONAL":
			p.next()
			sub, err := p.group()
			if err != nil {
				return nil, err
			}
			g.Optionals = append(g.Optionals, sub)
		case t.kind == tokLBrace:
			// { A } UNION { B } [UNION { C } ...]
			first, err := p.group()
			if err != nil {
				return nil, err
			}
			alts := []*GroupGraphPattern{first}
			for p.cur().kind == tokKeyword && p.cur().text == "UNION" {
				p.next()
				alt, err := p.group()
				if err != nil {
					return nil, err
				}
				alts = append(alts, alt)
			}
			if len(alts) == 1 {
				// plain nested group: merge its contents
				g.Triples = append(g.Triples, first.Triples...)
				g.Filters = append(g.Filters, first.Filters...)
				g.Optionals = append(g.Optionals, first.Optionals...)
				g.Unions = append(g.Unions, first.Unions...)
			} else {
				g.Unions = append(g.Unions, alts)
			}
		case t.kind == tokDot:
			p.next()
		default:
			if err := p.triplesSameSubject(g); err != nil {
				return nil, err
			}
		}
	}
}

// triplesSameSubject parses "subject pred obj (',' obj)* (';' pred obj ...)* '.'?".
func (p *parser) triplesSameSubject(g *GroupGraphPattern) error {
	subj, err := p.node()
	if err != nil {
		return err
	}
	for {
		pred, err := p.node()
		if err != nil {
			return err
		}
		for {
			obj, err := p.node()
			if err != nil {
				return err
			}
			g.Triples = append(g.Triples, TriplePattern{S: subj, P: pred, O: obj})
			if p.cur().kind == tokComma {
				p.next()
				continue
			}
			break
		}
		if p.cur().kind == tokSemicolon {
			p.next()
			// allow trailing ';' before '.' or '}'
			if p.cur().kind == tokDot || p.cur().kind == tokRBrace {
				break
			}
			continue
		}
		break
	}
	if p.cur().kind == tokDot {
		p.next()
	}
	return nil
}

// node parses a variable, IRI, prefixed name, 'a', literal, or number.
// A constant of the text becomes its term through constTerm, the
// constructor Lift.Term binds another text's constants with.
func (p *parser) node() (Node, error) {
	t := p.next()
	switch t.kind {
	case tokVar:
		return VarNode(t.text), nil
	case tokIRI:
		return constNode(liftIRI, t, ""), nil
	case tokA:
		return TermNode(rdf.IRI(rdf.RDFType)), nil
	case tokPName:
		iri, err := p.expandPName(t.text)
		if err != nil {
			return Node{}, err
		}
		return TermNode(rdf.IRI(iri)), nil
	case tokString:
		switch p.cur().kind {
		case tokLangTag:
			return constNode(liftLang, t, p.next().text), nil
		case tokDTSep:
			p.next()
			dt, err := p.expect(tokIRI, "datatype IRI")
			if err != nil {
				return Node{}, err
			}
			return constNode(liftTyped, t, dt.text), nil
		default:
			return constNode(liftString, t, ""), nil
		}
	case tokNumber:
		return constNode(liftNumber, t, ""), nil
	case tokKeyword:
		if t.text == "TRUE" || t.text == "FALSE" {
			return TermNode(rdf.TypedLiteral(strings.ToLower(t.text), rdf.XSDBoolean)), nil
		}
		return Node{}, fmt.Errorf("sparql: unexpected keyword %s in triple pattern", t)
	default:
		return Node{}, fmt.Errorf("sparql: unexpected %s in triple pattern", t)
	}
}

// constNode is the node of a constant token t; extra is a string's
// language tag or datatype IRI.
func constNode(form liftForm, t token, extra string) Node {
	return Node{Term: constTerm(form, t.text, extra), Lift: lift(form, t)}
}

func (p *parser) expandPName(pname string) (string, error) {
	i := strings.IndexByte(pname, ':')
	if i < 0 {
		return "", fmt.Errorf("sparql: malformed prefixed name %q", pname)
	}
	prefix, local := pname[:i], pname[i+1:]
	base, ok := p.prefixes[prefix]
	if !ok {
		return "", fmt.Errorf("sparql: undeclared prefix %q", prefix)
	}
	return base + local, nil
}

// filterExpr parses "( expr )" or a bare function call after FILTER.
func (p *parser) filterExpr() (Expr, error) {
	if p.cur().kind == tokLParen {
		p.next()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return p.unary()
}

// expr := and ( '||' and )*
func (p *parser) expr() (Expr, error) {
	left, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokOr {
		p.next()
		right, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		left = &binaryExpr{op: opOr, l: left, r: right}
	}
	return left, nil
}

// andExpr := rel ( '&&' rel )*
func (p *parser) andExpr() (Expr, error) {
	left, err := p.relExpr()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokAnd {
		p.next()
		right, err := p.relExpr()
		if err != nil {
			return nil, err
		}
		left = &binaryExpr{op: opAnd, l: left, r: right}
	}
	return left, nil
}

// relExpr := unary ( cmpOp unary )?
func (p *parser) relExpr() (Expr, error) {
	left, err := p.unary()
	if err != nil {
		return nil, err
	}
	var op binaryOp
	switch p.cur().kind {
	case tokEq:
		op = opEq
	case tokNeq:
		op = opNeq
	case tokLt:
		op = opLt
	case tokLte:
		op = opLte
	case tokGt:
		op = opGt
	case tokGte:
		op = opGte
	default:
		return left, nil
	}
	p.next()
	right, err := p.unary()
	if err != nil {
		return nil, err
	}
	return &binaryExpr{op: op, l: left, r: right}, nil
}

// unary := '!' unary | '(' expr ')' | FUNC '(' args ')' | var | literal
func (p *parser) unary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNot:
		p.next()
		inner, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &notExpr{inner: inner}, nil
	case tokLParen:
		p.next()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case tokVar:
		p.next()
		return &varExpr{name: t.text}, nil
	case tokString:
		p.next()
		// expressions treat plain strings as strings; language tags and
		// datatypes are allowed but collapse to the lexical form
		switch p.cur().kind {
		case tokLangTag:
			p.next()
		case tokDTSep:
			p.next()
			if _, err := p.expect(tokIRI, "datatype IRI"); err != nil {
				return nil, err
			}
		}
		return constExprOf(liftString, t), nil
	case tokNumber:
		p.next()
		return constExprOf(liftNumber, t), nil
	case tokIRI:
		p.next()
		return constExprOf(liftIRI, t), nil
	case tokPName:
		p.next()
		iri, err := p.expandPName(t.text)
		if err != nil {
			return nil, err
		}
		return &constExpr{v: Value{Kind: ValTerm, Term: rdf.IRI(iri)}}, nil
	case tokKeyword:
		switch t.text {
		case "TRUE", "FALSE":
			p.next()
			return &constExpr{v: Value{Kind: ValBool, Bool: t.text == "TRUE"}}, nil
		default:
			return p.funcCall()
		}
	default:
		return nil, fmt.Errorf("sparql: unexpected %s in expression", t)
	}
}

// constExprOf is the FILTER constant of token t, made by constValue,
// which BindExpr binds another text's constants with.
func constExprOf(form liftForm, t token) Expr {
	return &constExpr{v: constValue(form, t.text), lift: lift(form, t)}
}

func (p *parser) funcCall() (Expr, error) {
	name := p.next().text
	if !knownFunc(name) {
		return nil, fmt.Errorf("sparql: unknown function %q", name)
	}
	if _, err := p.expect(tokLParen, "("); err != nil {
		return nil, err
	}
	var args []Expr
	if p.cur().kind != tokRParen {
		for {
			a, err := p.expr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if p.cur().kind == tokComma {
				p.next()
				continue
			}
			break
		}
	}
	if _, err := p.expect(tokRParen, ")"); err != nil {
		return nil, err
	}
	return newFuncExpr(name, args)
}
