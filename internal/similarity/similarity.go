// Package similarity implements the generic, type-aware value similarity
// function used by ALEX when building feature sets (paper §4.1: "ALEX uses
// a generic similarity function that depends on the type of the attributes
// to be compared (string, integer, float, date, etc.)").
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

// Compare returns the similarity of two terms in [0, 1], dispatching on
// their inferred value kinds. Terms of incompatible kinds (for example a
// date and a float) score 0 unless both parse as numbers.
func Compare(a, b rdf.Term) float64 {
	ka, kb := InferKind(a), InferKind(b)
	if ka == KindIRI || kb == KindIRI {
		if ka == kb {
			return iriSimilarity(a, b)
		}
		return 0
	}
	switch {
	case ka == kb:
		switch ka {
		case KindInteger, KindFloat:
			return Numeric(mustFloat(a.Value), mustFloat(b.Value))
		case KindDate:
			da, _ := parseDate(a.Value)
			db, _ := parseDate(b.Value)
			return Date(da, db)
		case KindBool:
			if strings.EqualFold(a.Value, b.Value) {
				return 1
			}
			return 0
		default:
			return String(a.Value, b.Value)
		}
	case numericKind(ka) && numericKind(kb):
		return Numeric(mustFloat(a.Value), mustFloat(b.Value))
	default:
		return 0
	}
}

func numericKind(k ValueKind) bool { return k == KindInteger || k == KindFloat }

func mustFloat(s string) float64 {
	v, ok := ParseNumber(s)
	if !ok {
		return math.NaN()
	}
	return v
}

func iriSimilarity(a, b rdf.Term) float64 {
	if a == b {
		return 1
	}
	// Compare local names: two IRIs from different namespaces can still
	// denote similar things (e.g. .../LeBron_James vs .../lebron-james).
	return String(a.LocalName(), b.LocalName())
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

// String returns a composite string similarity: the maximum of
// Jaro-Winkler and token-set Jaccard over normalized input. Combining an
// edit-based and a token-based measure handles both typos and word
// reordering ("James, LeBron" vs "LeBron James").
func String(a, b string) float64 {
	na, nb := Normalize(a), Normalize(b)
	if na == nb {
		if na == "" {
			return 0
		}
		return 1
	}
	jw := JaroWinkler(na, nb)
	tj := TokenJaccard(na, nb)
	if tj > jw {
		return tj
	}
	return jw
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

// Levenshtein returns the edit distance between a and b.
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// LevenshteinSimilarity returns 1 − dist/maxLen in [0, 1].
func LevenshteinSimilarity(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	if la == 0 && lb == 0 {
		return 1
	}
	m := la
	if lb > m {
		m = lb
	}
	return 1 - float64(Levenshtein(a, b))/float64(m)
}

// Jaro returns the Jaro similarity of a and b.
func Jaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := la
	if lb > window {
		window = lb
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	matchA := make([]bool, la)
	matchB := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if matchB[j] || ra[i] != rb[j] {
				continue
			}
			matchA[i] = true
			matchB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	return (m/float64(la) + m/float64(lb) + (m-float64(transpositions)/2)/m) / 3
}

// JaroWinkler returns the Jaro-Winkler similarity with the standard
// prefix scale 0.1 and maximum prefix length 4.
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	prefix := 0
	ra, rb := []rune(a), []rune(b)
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
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

// Numeric returns a proximity score for two numbers: 1 for equal values,
// decaying with the relative difference.
func Numeric(a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return 0
	}
	if a == b {
		return 1
	}
	denom := math.Max(math.Abs(a), math.Abs(b))
	if denom == 0 {
		return 1
	}
	rel := math.Abs(a-b) / denom
	if rel >= 1 {
		return 0
	}
	return 1 - rel
}

// Date returns a proximity score for two dates: 1 for the same day,
// decaying linearly to 0 over a ten-year gap.
func Date(a, b time.Time) float64 {
	const window = 10 * 365.25 * 24 * time.Hour
	d := a.Sub(b)
	if d < 0 {
		d = -d
	}
	if d >= window {
		return 0
	}
	return 1 - float64(d)/float64(window)
}
