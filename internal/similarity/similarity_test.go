package similarity

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"alex/internal/rdf"
)

func almost(got, want, eps float64) bool { return math.Abs(got-want) <= eps }

func TestInferKind(t *testing.T) {
	cases := []struct {
		term rdf.Term
		want ValueKind
	}{
		{rdf.IRI("http://a"), KindIRI},
		{rdf.Blank("b"), KindIRI},
		{rdf.TypedLiteral("5", rdf.XSDInteger), KindInteger},
		{rdf.TypedLiteral("5.5", rdf.XSDDouble), KindFloat},
		{rdf.TypedLiteral("2020-01-01", rdf.XSDDate), KindDate},
		{rdf.TypedLiteral("true", rdf.XSDBoolean), KindBool},
		{rdf.Literal("42"), KindInteger},
		{rdf.Literal("3.14"), KindFloat},
		{rdf.Literal("1984-12-30"), KindDate},
		{rdf.Literal("LeBron James"), KindString},
		// What strconv.ParseFloat takes for NaN and ±Inf is not a number.
		{rdf.Literal("Nan"), KindString},
		{rdf.Literal("inf"), KindString},
		{rdf.Literal("-Infinity"), KindString},
		{rdf.TypedLiteral("NaN", rdf.XSDDouble), KindString},
		{rdf.TypedLiteral("seven", rdf.XSDInteger), KindString},
	}
	for _, c := range cases {
		if got := InferKind(c.term); got != c.want {
			t.Errorf("InferKind(%v) = %d, want %d", c.term, got, c.want)
		}
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"same", "same", 0},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestJaroWinklerKnownValues(t *testing.T) {
	if got := JaroWinkler("martha", "marhta"); !almost(got, 0.9611, 0.001) {
		t.Errorf("JaroWinkler(martha,marhta) = %f, want ~0.961", got)
	}
	if got := JaroWinkler("dwayne", "duane"); !almost(got, 0.84, 0.001) {
		t.Errorf("JaroWinkler(dwayne,duane) = %f, want ~0.84", got)
	}
	if got := Jaro("abc", "abc"); got != 1 {
		t.Errorf("Jaro identity = %f", got)
	}
	if got := Jaro("abc", "xyz"); got != 0 {
		t.Errorf("Jaro disjoint = %f, want 0", got)
	}
}

func TestTokenJaccard(t *testing.T) {
	if got := TokenJaccard("lebron james", "james lebron"); got != 1 {
		t.Errorf("token reorder = %f, want 1", got)
	}
	if got := TokenJaccard("a b", "b c"); !almost(got, 1.0/3, 1e-9) {
		t.Errorf("jaccard = %f, want 1/3", got)
	}
	if got := TokenJaccard("", ""); got != 1 {
		t.Errorf("both empty = %f, want 1", got)
	}
	if got := TokenJaccard("a", ""); got != 0 {
		t.Errorf("one empty = %f, want 0", got)
	}
	if got := TokenJaccard("a a a", "a"); got != 1 {
		t.Errorf("repeated tokens = %f, want 1", got)
	}
}

func TestTrigramJaccard(t *testing.T) {
	if got := TrigramJaccard("hello", "hello"); got != 1 {
		t.Errorf("identity = %f, want 1", got)
	}
	if got := TrigramJaccard("hello", "help"); got <= 0 || got >= 1 {
		t.Errorf("related strings = %f, want in (0,1)", got)
	}
	if got := TrigramJaccard("", ""); got != 1 {
		t.Errorf("both empty = %f, want 1", got)
	}
}

func TestNumeric(t *testing.T) {
	if got := Numeric(10, 10); got != 1 {
		t.Errorf("equal = %f, want 1", got)
	}
	if got := Numeric(0, 0); got != 1 {
		t.Errorf("zeros = %f, want 1", got)
	}
	if got := Numeric(10, 11); !almost(got, 1-1.0/11, 1e-9) {
		t.Errorf("10 vs 11 = %f", got)
	}
	if got := Numeric(1, 1000); got > 0.01 {
		t.Errorf("far apart = %f, want near 0", got)
	}
	if got := Numeric(math.NaN(), 1); got != 0 {
		t.Errorf("NaN = %f, want 0", got)
	}
	if got := Numeric(-5, 5); got != 0 {
		t.Errorf("opposite signs = %f, want 0", got)
	}
}

func TestDate(t *testing.T) {
	d1 := time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC)
	if got := Date(d1, d1); got != 1 {
		t.Errorf("same day = %f, want 1", got)
	}
	d2 := d1.AddDate(0, 0, 365)
	got := Date(d1, d2)
	if !almost(got, 0.9, 0.01) {
		t.Errorf("one year apart = %f, want ~0.9", got)
	}
	if Date(d1, d2) != Date(d2, d1) {
		t.Error("Date is not symmetric")
	}
	far := d1.AddDate(50, 0, 0)
	if got := Date(d1, far); got != 0 {
		t.Errorf("50 years apart = %f, want 0", got)
	}
}

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"LeBron James", "lebron james"},
		{"  James,   LeBron  ", "james lebron"},
		{"O'Neal-Shaq", "o neal shaq"},
		{"", ""},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestCompareDispatch(t *testing.T) {
	// Same strings with formatting noise should score high.
	if got := Compare(rdf.Literal("LeBron James"), rdf.Literal("james, lebron")); got != 1 {
		t.Errorf("reordered name = %f, want 1", got)
	}
	// Numbers compared numerically even across lexical forms.
	if got := Compare(rdf.Literal("100"), rdf.Literal("100.0")); got != 1 {
		t.Errorf("100 vs 100.0 = %f, want 1", got)
	}
	// Date vs date.
	if got := Compare(rdf.TypedLiteral("1984-12-30", rdf.XSDDate), rdf.Literal("1984-12-30")); got != 1 {
		t.Errorf("same dates = %f, want 1", got)
	}
	// Incompatible kinds.
	if got := Compare(rdf.Literal("2020-01-01"), rdf.Literal("hello world")); got != 0 {
		t.Errorf("date vs string = %f, want 0", got)
	}
	// IRI vs literal.
	if got := Compare(rdf.IRI("http://a"), rdf.Literal("a")); got != 0 {
		t.Errorf("IRI vs literal = %f, want 0", got)
	}
	// IRIs with same local name.
	if got := Compare(rdf.IRI("http://x.org/LeBron_James"), rdf.IRI("http://y.org/LeBron_James")); got < 0.8 {
		t.Errorf("same local names = %f, want high", got)
	}
}

// Property: every exported similarity is in [0,1] and symmetric.
func TestSimilarityRangeAndSymmetryProperty(t *testing.T) {
	funcs := map[string]func(a, b string) float64{
		"String":        String,
		"Jaro":          Jaro,
		"JaroWinkler":   JaroWinkler,
		"TokenJaccard":  TokenJaccard,
		"Trigram":       TrigramJaccard,
		"LevenshteinSm": LevenshteinSimilarity,
	}
	for name, fn := range funcs {
		fn := fn
		prop := func(a, b string) bool {
			x, y := fn(a, b), fn(b, a)
			return x >= 0 && x <= 1 && almost(x, y, 1e-9)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Property: identity scores 1 for non-empty strings.
func TestSimilarityIdentityProperty(t *testing.T) {
	prop := func(a string) bool {
		if a == "" {
			return true
		}
		return Jaro(a, a) == 1 && TokenJaccard(a, a) == 1 && LevenshteinSimilarity(a, a) == 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Compare stays in [0,1] for arbitrary literal pairs.
func TestCompareRangeProperty(t *testing.T) {
	prop := func(a, b string) bool {
		v := Compare(rdf.Literal(a), rdf.Literal(b))
		return v >= 0 && v <= 1 && !math.IsNaN(v)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
