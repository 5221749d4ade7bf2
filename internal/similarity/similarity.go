// Package similarity implements the generic, type-aware value similarity
// function used by ALEX when building feature sets (paper §4.1: "ALEX uses
// a generic similarity function that depends on the type of the attributes
// to be compared (string, integer, float, date, etc.)"): SpaceSim
// (spacesim.go), over the kind inference, normalization and the two
// Jaccard measures in this file.
//
// All functions return scores in [0, 1], with 1 meaning identical.
package similarity

import (
	"math"
	"strconv"
	"strings"
	"time"
	"unicode"

	"alex/internal/rdf"
)

// ValueKind is the inferred type of a literal value.
type ValueKind uint8

// The value kinds recognized by type inference.
const (
	KindString ValueKind = iota
	KindInteger
	KindFloat
	KindDate
	KindBool
	KindIRI
)

// ParseNumber parses a lexical form as a finite number.
// strconv.ParseFloat also accepts "NaN", "Inf" and "Infinity", signed
// and in any case — the given name "Nan" among them — and a proximity
// window over those is NaN, which is no score. Such a form is not a
// number here, whatever datatype it declares: it is compared as the
// string it is.
func ParseNumber(lex string) (float64, bool) {
	v, err := strconv.ParseFloat(lex, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, false
	}
	return v, true
}

// InferKind determines the value kind of a term, preferring the declared
// XSD datatype and falling back to lexical sniffing for plain literals.
// A declared number whose lexical form is not one (see ParseNumber) is
// a string.
func InferKind(t rdf.Term) ValueKind {
	if t.IsIRI() || t.IsBlank() {
		return KindIRI
	}
	switch dt := t.EffectiveDatatype(); dt {
	case rdf.XSDInteger, rdf.XSDDecimal, rdf.XSDDouble:
		if _, ok := ParseNumber(t.Value); !ok {
			return KindString
		}
		if dt == rdf.XSDInteger {
			return KindInteger
		}
		return KindFloat
	case rdf.XSDDate, rdf.XSDDateTime:
		return KindDate
	case rdf.XSDBoolean:
		return KindBool
	}
	lex := t.Value
	if _, err := strconv.ParseInt(lex, 10, 64); err == nil {
		return KindInteger
	}
	if _, ok := ParseNumber(lex); ok {
		return KindFloat
	}
	if _, ok := parseDate(lex); ok {
		return KindDate
	}
	return KindString
}

func numericKind(k ValueKind) bool { return k == KindInteger || k == KindFloat }

func mustFloat(s string) float64 {
	v, ok := ParseNumber(s)
	if !ok {
		return math.NaN()
	}
	return v
}

var dateLayouts = []string{"2006-01-02", "2006-01-02T15:04:05", "2006-01-02T15:04:05Z07:00", "2006"}

func parseDate(s string) (time.Time, bool) {
	for _, layout := range dateLayouts {
		if t, err := time.Parse(layout, s); err == nil {
			return t, true
		}
	}
	return time.Time{}, false
}

// Normalize lowercases, collapses whitespace and strips punctuation so
// that formatting variants compare equal.
func Normalize(s string) string {
	var b strings.Builder
	lastSpace := true
	for _, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
			lastSpace = false
		case !lastSpace:
			b.WriteByte(' ')
			lastSpace = true
		}
	}
	return strings.TrimSpace(b.String())
}

// TokenJaccard returns the Jaccard coefficient of the whitespace-token
// sets of a and b.
func TokenJaccard(a, b string) float64 {
	ta := strings.Fields(a)
	tb := strings.Fields(b)
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	set := make(map[string]bool, len(ta))
	for _, tok := range ta {
		set[tok] = true
	}
	inter := 0
	seen := make(map[string]bool, len(tb))
	for _, tok := range tb {
		if seen[tok] {
			continue
		}
		seen[tok] = true
		if set[tok] {
			inter++
		}
	}
	union := len(set) + len(seen) - inter
	return float64(inter) / float64(union)
}

// TrigramJaccard returns the Jaccard coefficient of the character
// 3-gram sets of a and b (padded), a robust fuzzy measure for short
// strings.
func TrigramJaccard(a, b string) float64 {
	ga := trigrams(a)
	gb := trigrams(b)
	if len(ga) == 0 && len(gb) == 0 {
		return 1
	}
	if len(ga) == 0 || len(gb) == 0 {
		return 0
	}
	inter := 0
	for g := range gb {
		if ga[g] {
			inter++
		}
	}
	union := len(ga) + len(gb) - inter
	return float64(inter) / float64(union)
}

func trigrams(s string) map[string]bool {
	if s == "" {
		return nil
	}
	padded := "  " + s + " "
	r := []rune(padded)
	out := make(map[string]bool, len(r))
	for i := 0; i+3 <= len(r); i++ {
		out[string(r[i:i+3])] = true
	}
	return out
}
