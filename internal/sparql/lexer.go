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
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of query"
	}
	return fmt.Sprintf("%q", t.text)
}

var keywords = map[string]bool{
	"SELECT": true, "WHERE": true, "PREFIX": true, "DISTINCT": true,
	"FILTER": true, "OPTIONAL": true, "UNION": true, "ORDER": true,
	"BY": true, "ASC": true, "DESC": true, "LIMIT": true, "OFFSET": true,
	"TRUE": true, "FALSE": true,
}

type lexer struct {
	in   string
	pos  int
	toks []token
}

func lex(in string) ([]token, error) {
	l := &lexer{in: in}
	for {
		l.skipSpace()
		if l.pos >= len(l.in) {
			l.emit(tokEOF, "", l.pos)
			return l.toks, nil
		}
		start := l.pos
		c := l.in[l.pos]
		switch {
		case c == '<':
			// '<' starts an IRI only if a '>' follows before whitespace;
			// otherwise it is the less-than operator.
			if end := iriEnd(l.in[l.pos:]); end > 0 {
				l.emit(tokIRI, l.in[l.pos+1:l.pos+end], start)
				l.pos += end + 1
			} else if l.peekAt(1) == '=' {
				l.pos += 2
				l.emit(tokLte, "<=", start)
			} else {
				l.pos++
				l.emit(tokLt, "<", start)
			}
		case c == '?' || c == '$':
			l.pos++
			name := l.ident()
			if name == "" {
				return nil, fmt.Errorf("sparql: empty variable name at offset %d", start)
			}
			l.emit(tokVar, name, start)
		case c == '"':
			s, err := l.stringLit()
			if err != nil {
				return nil, err
			}
			l.emit(tokString, s, start)
		case c == '@':
			l.pos++
			tag := l.ident()
			if tag == "" {
				return nil, fmt.Errorf("sparql: empty language tag at offset %d", start)
			}
			l.emit(tokLangTag, tag, start)
		case c >= '0' && c <= '9' || (c == '-' || c == '+') && l.pos+1 < len(l.in) && l.in[l.pos+1] >= '0' && l.in[l.pos+1] <= '9':
			l.emit(tokNumber, l.number(), start)
		case c == '{':
			l.pos++
			l.emit(tokLBrace, "{", start)
		case c == '}':
			l.pos++
			l.emit(tokRBrace, "}", start)
		case c == '(':
			l.pos++
			l.emit(tokLParen, "(", start)
		case c == ')':
			l.pos++
			l.emit(tokRParen, ")", start)
		case c == '.':
			l.pos++
			l.emit(tokDot, ".", start)
		case c == ';':
			l.pos++
			l.emit(tokSemicolon, ";", start)
		case c == ',':
			l.pos++
			l.emit(tokComma, ",", start)
		case c == '*':
			l.pos++
			l.emit(tokStar, "*", start)
		case c == '=':
			l.pos++
			l.emit(tokEq, "=", start)
		case c == '!':
			if l.peekAt(1) == '=' {
				l.pos += 2
				l.emit(tokNeq, "!=", start)
			} else {
				l.pos++
				l.emit(tokNot, "!", start)
			}
		case c == '>':
			if l.peekAt(1) == '=' {
				l.pos += 2
				l.emit(tokGte, ">=", start)
			} else {
				l.pos++
				l.emit(tokGt, ">", start)
			}
		case c == '&':
			if l.peekAt(1) != '&' {
				return nil, fmt.Errorf("sparql: stray '&' at offset %d", start)
			}
			l.pos += 2
			l.emit(tokAnd, "&&", start)
		case c == '|':
			if l.peekAt(1) != '|' {
				return nil, fmt.Errorf("sparql: stray '|' at offset %d", start)
			}
			l.pos += 2
			l.emit(tokOr, "||", start)
		case c == '^':
			if l.peekAt(1) != '^' {
				return nil, fmt.Errorf("sparql: stray '^' at offset %d", start)
			}
			l.pos += 2
			l.emit(tokDTSep, "^^", start)
		case c == '#':
			for l.pos < len(l.in) && l.in[l.pos] != '\n' {
				l.pos++
			}
		default:
			word := l.pnameOrKeyword()
			if word == "" {
				return nil, fmt.Errorf("sparql: unexpected character %q at offset %d", c, start)
			}
			upper := strings.ToUpper(word)
			switch {
			case word == "a":
				l.emit(tokA, "a", start)
			case keywords[upper] && !strings.Contains(word, ":"):
				l.emit(tokKeyword, upper, start)
			case strings.Contains(word, ":"):
				l.emit(tokPName, word, start)
			default:
				// bare word that is not a keyword: treat as function name
				l.emit(tokKeyword, upper, start)
			}
		}
	}
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

func (l *lexer) emit(k tokenKind, text string, pos int) {
	l.toks = append(l.toks, token{kind: k, text: text, pos: pos})
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

func (l *lexer) stringLit() (string, error) {
	l.pos++ // opening quote
	var b strings.Builder
	for {
		if l.pos >= len(l.in) {
			return "", fmt.Errorf("sparql: unterminated string")
		}
		c := l.in[l.pos]
		if c == '"' {
			l.pos++
			return b.String(), nil
		}
		if c == '\\' {
			if l.pos+1 >= len(l.in) {
				return "", fmt.Errorf("sparql: dangling escape in string")
			}
			switch l.in[l.pos+1] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case '"':
				b.WriteByte('"')
			case '\\':
				b.WriteByte('\\')
			default:
				return "", fmt.Errorf("sparql: invalid escape \\%c", l.in[l.pos+1])
			}
			l.pos += 2
			continue
		}
		b.WriteByte(c)
		l.pos++
	}
}
