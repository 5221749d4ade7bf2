// Package sparql implements a SPARQL subset sufficient for the federated
// query workloads in the ALEX reproduction: SELECT queries with basic
// graph patterns, FILTER expressions, OPTIONAL, UNION, DISTINCT,
// ORDER BY, LIMIT and OFFSET. It is the language only: the parser, FILTER
// expressions and the finalisation of solution rows. internal/federation
// evaluates a query's patterns over the stores.
package sparql

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind uint8

const (
	tokEOF     tokenKind = iota
	tokIRI               // <...>
	tokPName             // prefix:local or :local
	tokVar               // ?name or $name
	tokString            // "..." with escapes
	tokNumber            // integer or decimal
	tokKeyword           // SELECT, WHERE, ... (uppercased)
	tokA                 // the keyword 'a' (rdf:type)
	tokLBrace
	tokRBrace
	tokLParen
	tokRParen
	tokDot
	tokSemicolon
	tokComma
	tokStar
	tokEq
	tokNeq
	tokLt
	tokLte
	tokGt
	tokGte
	tokAnd
	tokOr
	tokNot
	tokLangTag // @en
	tokDTSep   // ^^
)

type token struct {
	kind tokenKind
	text string
	pos  int
	// ord numbers the token among the text's constants (see Shape); -1
	// when it is not one.
	ord int32
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of query"
	}
	return fmt.Sprintf("%q", t.text)
}

// lexer hands out a text's tokens one at a time. A string token's text
// is what stands between its quotes, escapes still in it: lex decodes
// it, Shape.Scan keeps it as it is.
type lexer struct {
	in  string
	pos int
	// body is set once the first '{' has passed: the WHERE clause has
	// begun, and from there on every IRI, string, number and language
	// tag is a constant, numbered in text order by consts.
	body   bool
	consts int32
}

// lex returns every token of in, strings decoded, ending with tokEOF.
func lex(in string) ([]token, error) {
	l := &lexer{in: in}
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		if t.kind == tokString {
			t.text = unescape(t.text)
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

// next returns the next token, tokEOF at the end of the input. It
// allocates only to report an error or to upper-case a keyword written
// in lower case.
func (l *lexer) next() (token, error) {
	for {
		l.skipSpace()
		if l.pos >= len(l.in) {
			return l.tok(tokEOF, "", l.pos), nil
		}
		start := l.pos
		c := l.in[l.pos]
		switch {
		case c == '<':
			// '<' starts an IRI only if a '>' follows before whitespace;
			// otherwise it is the less-than operator.
			if end := iriEnd(l.in[l.pos:]); end > 0 {
				l.pos += end + 1
				return l.tok(tokIRI, l.in[start+1:start+end], start), nil
			}
			if l.peekAt(1) == '=' {
				l.pos += 2
				return l.tok(tokLte, "<=", start), nil
			}
			l.pos++
			return l.tok(tokLt, "<", start), nil
		case c == '?' || c == '$':
			l.pos++
			name := l.ident()
			if name == "" {
				return token{}, fmt.Errorf("sparql: empty variable name at offset %d", start)
			}
			return l.tok(tokVar, name, start), nil
		case c == '"':
			s, err := l.stringLit()
			if err != nil {
				return token{}, err
			}
			return l.tok(tokString, s, start), nil
		case c == '@':
			l.pos++
			tag := l.ident()
			if tag == "" {
				return token{}, fmt.Errorf("sparql: empty language tag at offset %d", start)
			}
			return l.tok(tokLangTag, tag, start), nil
		case c >= '0' && c <= '9' || (c == '-' || c == '+') && l.pos+1 < len(l.in) && l.in[l.pos+1] >= '0' && l.in[l.pos+1] <= '9':
			return l.tok(tokNumber, l.number(), start), nil
		case c == '#':
			for l.pos < len(l.in) && l.in[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		if k, n := punct(l.in[l.pos:]); n > 0 {
			l.pos += n
			return l.tok(k, l.in[start:l.pos], start), nil
		}
		switch c {
		case '&', '|', '^':
			return token{}, fmt.Errorf("sparql: stray '%c' at offset %d", c, start)
		}
		word := l.pnameOrKeyword()
		switch {
		case word == "":
			return token{}, fmt.Errorf("sparql: unexpected character %q at offset %d", c, start)
		case word == "a":
			return l.tok(tokA, "a", start), nil
		case strings.Contains(word, ":"):
			return l.tok(tokPName, word, start), nil
		default:
			// A keyword, or a bare word that is not one: a function name.
			return l.tok(tokKeyword, strings.ToUpper(word), start), nil
		}
	}
}

// punct returns the operator or punctuation token s starts with, n 0
// when it starts with none.
func punct(s string) (k tokenKind, n int) {
	two := len(s) > 1
	switch s[0] {
	case '{':
		return tokLBrace, 1
	case '}':
		return tokRBrace, 1
	case '(':
		return tokLParen, 1
	case ')':
		return tokRParen, 1
	case '.':
		return tokDot, 1
	case ';':
		return tokSemicolon, 1
	case ',':
		return tokComma, 1
	case '*':
		return tokStar, 1
	case '=':
		return tokEq, 1
	case '!':
		if two && s[1] == '=' {
			return tokNeq, 2
		}
		return tokNot, 1
	case '>':
		if two && s[1] == '=' {
			return tokGte, 2
		}
		return tokGt, 1
	case '&':
		if two && s[1] == '&' {
			return tokAnd, 2
		}
	case '|':
		if two && s[1] == '|' {
			return tokOr, 2
		}
	case '^':
		if two && s[1] == '^' {
			return tokDTSep, 2
		}
	}
	return 0, 0
}

// tok makes the token at pos, numbering it if it is a constant.
func (l *lexer) tok(k tokenKind, text string, pos int) token {
	t := token{kind: k, text: text, pos: pos, ord: -1}
	switch k {
	case tokLBrace:
		l.body = true
	case tokIRI, tokString, tokNumber, tokLangTag:
		if l.body {
			t.ord = l.consts
			l.consts++
		}
	}
	return t
}

// iriEnd returns the index of the closing '>' if s (starting with '<')
// is an IRI reference, or 0 if it is not.
func iriEnd(s string) int {
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '>':
			return i
		case ' ', '\t', '\n', '\r', '<':
			return 0
		}
	}
	return 0
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.in) {
		c := l.in[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		break
	}
}

func (l *lexer) peekAt(off int) byte {
	if l.pos+off >= len(l.in) {
		return 0
	}
	return l.in[l.pos+off]
}

func (l *lexer) ident() string {
	start := l.pos
	for l.pos < len(l.in) {
		c := rune(l.in[l.pos])
		if unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' || c == '-' {
			l.pos++
			continue
		}
		break
	}
	return l.in[start:l.pos]
}

func (l *lexer) pnameOrKeyword() string {
	start := l.pos
	for l.pos < len(l.in) {
		c := rune(l.in[l.pos])
		if unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' || c == '-' || c == ':' || c == '.' && l.pos > start {
			l.pos++
			continue
		}
		break
	}
	// trailing '.' belongs to the triple terminator, not the name
	for l.pos > start && l.in[l.pos-1] == '.' {
		l.pos--
	}
	return l.in[start:l.pos]
}

func (l *lexer) number() string {
	start := l.pos
	if l.in[l.pos] == '-' || l.in[l.pos] == '+' {
		l.pos++
	}
	dots := 0
	for l.pos < len(l.in) {
		c := l.in[l.pos]
		if c >= '0' && c <= '9' {
			l.pos++
			continue
		}
		if c == '.' && dots == 0 && l.pos+1 < len(l.in) && l.in[l.pos+1] >= '0' && l.in[l.pos+1] <= '9' {
			dots++
			l.pos++
			continue
		}
		break
	}
	return l.in[start:l.pos]
}

// stringLit reads a string literal and returns what stands between its
// quotes, escapes checked but not decoded.
func (l *lexer) stringLit() (string, error) {
	l.pos++ // opening quote
	start := l.pos
	for {
		if l.pos >= len(l.in) {
			return "", fmt.Errorf("sparql: unterminated string")
		}
		switch l.in[l.pos] {
		case '"':
			l.pos++
			return l.in[start : l.pos-1], nil
		case '\\':
			if l.pos+1 >= len(l.in) {
				return "", fmt.Errorf("sparql: dangling escape in string")
			}
			if unescapeByte(l.in[l.pos+1]) == 0 {
				return "", fmt.Errorf("sparql: invalid escape \\%c", l.in[l.pos+1])
			}
			l.pos += 2
		default:
			l.pos++
		}
	}
}

// unescapeByte returns the byte the escape \c stands for, 0 when it is
// not an escape.
func unescapeByte(c byte) byte {
	switch c {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case '"', '\\':
		return c
	}
	return 0
}

// unescape decodes a string literal's text as stringLit returned it.
// Only a text with an escape in it is copied.
func unescape(raw string) string {
	if strings.IndexByte(raw, '\\') < 0 {
		return raw
	}
	var b strings.Builder
	for i := 0; i < len(raw); i++ {
		if raw[i] == '\\' {
			i++
			b.WriteByte(unescapeByte(raw[i]))
			continue
		}
		b.WriteByte(raw[i])
	}
	return b.String()
}
