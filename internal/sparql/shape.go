package sparql

import (
	"encoding/binary"
	"slices"
	"strings"

	"alex/internal/rdf"
)

// Shape is a query text with its constants lifted out: what texts that
// differ only in their constants have in common. From the brace that
// opens the WHERE clause on, every IRI, string, number and language tag
// is a constant, in triple patterns, FILTERs and LIMIT/OFFSET alike;
// everything else stays as it is: keywords, variables, prefixed names,
// a, and the PREFIX declarations. The parser decides by token kinds
// alone, but for one thing: whether a LIMIT or OFFSET count is a count
// (Query.Limits). So texts with one Key parse to one query tree up to
// its constants, and a tree parsed from one of them serves the others
// once their constants are bound: Lift.Term in a triple pattern,
// BindExpr in a FILTER, Query.Limits for LIMIT and OFFSET.
type Shape struct {
	// Key is the text's tokens, whitespace and comments dropped, each
	// constant replaced by the tag of its kind.
	Key []byte
	// Consts are the constants' texts in text order: an IRI without its
	// brackets, a string without its quotes and still escaped, a
	// language tag without its @, a number as written.
	Consts []string
}

// Scan returns the shape of query, written into s's buffers as far as
// they reach, and reports whether the text lexes. A text that does not
// has no shape; Parse returns its error. Scan allocates only when a
// buffer is too short or a keyword is written in lower case, so a
// caller that passes stack buffers makes the key on the stack.
func (s Shape) Scan(query string) (Shape, bool) {
	s.Key, s.Consts = s.Key[:0], s.Consts[:0]
	l := lexer{in: query}
	for {
		t, err := l.next()
		if err != nil {
			return s, false
		}
		s.Key = append(s.Key, byte(t.kind))
		if t.ord >= 0 {
			s.Consts = append(s.Consts, t.text)
		} else {
			s.Key = binary.AppendUvarint(s.Key, uint64(len(t.text)))
			s.Key = append(s.Key, t.text...)
		}
		if t.kind == tokEOF {
			return s, true
		}
	}
}

// liftForm is the constructor the parser built a term or an expression
// constant with from the text's constants.
type liftForm uint8

const (
	liftNone   liftForm = iota
	liftIRI             // <iri>
	liftString          // "lex"; in a FILTER also "lex"@tag and "lex"^^<dt>
	liftLang            // "lex"@tag in a triple pattern
	liftTyped           // "lex"^^<dt> in a triple pattern
	liftNumber          // 12, -3, 1.5
)

// Lift records where a constant of a parsed query came from: the
// ordinal of its first token among the text's constants (Shape.Consts)
// and the constructor the parser applied. The zero Lift reads no
// constant: a variable, a prefixed name, a, true or false.
type Lift struct {
	form liftForm
	ord  int32
}

func lift(form liftForm, t token) Lift {
	if t.ord < 0 {
		return Lift{}
	}
	return Lift{form: form, ord: t.ord}
}

// Lifted reports whether l reads constants of the text.
func (l Lift) Lifted() bool { return l.form != liftNone }

// width is how many constants l reads: a tagged or typed string reads
// its tag or datatype too.
func (l Lift) width() int {
	switch l.form {
	case liftNone:
		return 0
	case liftLang, liftTyped:
		return 2
	}
	return 1
}

// Equal reports whether a and b hold the same constants where l reads.
func (l Lift) Equal(a, b []string) bool {
	n := int(l.ord) + l.width()
	return slices.Equal(a[l.ord:n], b[l.ord:n])
}

// Term builds the triple-pattern term l stands for from consts, with
// the constructor the parser used.
func (l Lift) Term(consts []string) rdf.Term {
	var extra string
	if l.width() == 2 {
		extra = consts[l.ord+1]
	}
	return constTerm(l.form, l.text(consts), extra)
}

// text returns the constant l starts at as lex would have made it: a
// string decoded.
func (l Lift) text(consts []string) string {
	switch l.form {
	case liftString, liftLang, liftTyped:
		return unescape(consts[l.ord])
	}
	return consts[l.ord]
}

// constTerm is the triple-pattern term of a constant: text is the
// IRI, the decoded string or the number; extra is a string's language
// tag or datatype IRI.
func constTerm(form liftForm, text, extra string) rdf.Term {
	switch form {
	case liftIRI:
		return rdf.IRI(text)
	case liftString:
		return rdf.Literal(text)
	case liftLang:
		return rdf.LangLiteral(text, extra)
	case liftTyped:
		return rdf.TypedLiteral(text, extra)
	default:
		if strings.Contains(text, ".") {
			return rdf.TypedLiteral(text, rdf.XSDDecimal)
		}
		return rdf.TypedLiteral(text, rdf.XSDInteger)
	}
}

// constValue is the FILTER value of a constant, text as constTerm's.
// A string's tag or datatype does not reach the expression.
func constValue(form liftForm, text string) Value {
	switch form {
	case liftIRI:
		return Value{Kind: ValTerm, Term: rdf.IRI(text)}
	case liftNumber:
		return Value{Kind: ValNumber, Num: mustParseFloat(text)}
	default:
		return Value{Kind: ValString, Str: text}
	}
}

// BindExpr returns e with the constants of consts in place of the ones
// it was parsed with: e itself when it reads none, else a copy of the
// nodes from the root down to each constant.
func BindExpr(e Expr, consts []string) Expr {
	switch e := e.(type) {
	case *constExpr:
		if e.lift.Lifted() {
			return &constExpr{v: constValue(e.lift.form, e.lift.text(consts)), lift: e.lift}
		}
	case *notExpr:
		if in := BindExpr(e.inner, consts); in != e.inner {
			return &notExpr{inner: in}
		}
	case *binaryExpr:
		l, r := BindExpr(e.l, consts), BindExpr(e.r, consts)
		if l != e.l || r != e.r {
			return &binaryExpr{op: e.op, l: l, r: r}
		}
	case *funcExpr:
		var args []Expr
		for i, a := range e.args {
			b := BindExpr(a, consts)
			if b != a && args == nil {
				args = slices.Clone(e.args)
			}
			if args != nil {
				args[i] = b
			}
		}
		if args != nil {
			return &funcExpr{name: e.name, args: args}
		}
	}
	return e
}

// Limits returns the LIMIT and OFFSET q has under consts, its shape's
// constants from another text. ok is false when one of them is not a
// count the parser accepts there: that text must be parsed, for its
// error.
func (q *Query) Limits(consts []string) (limit, offset int, ok bool) {
	limit, offset = q.Limit, q.Offset
	if q.limitLift.Lifted() {
		if limit = atoiStrict(consts[q.limitLift.ord]); limit < 0 {
			return 0, 0, false
		}
	}
	if q.offsetLift.Lifted() {
		if offset = atoiStrict(consts[q.offsetLift.ord]); offset < 0 {
			return 0, 0, false
		}
	}
	return limit, offset, true
}
