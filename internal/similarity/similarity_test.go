package similarity

import (
	"math"
	"testing"
	"testing/quick"

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

// Property: every similarity is in [0,1], symmetric and never NaN —
// the two string measures on arbitrary strings, SpaceSim on arbitrary
// literal pairs.
func TestSimilarityRangeAndSymmetryProperty(t *testing.T) {
	funcs := map[string]func(a, b string) float64{
		"TokenJaccard": TokenJaccard,
		"Trigram":      TrigramJaccard,
		"SpaceSim":     func(a, b string) float64 { return SpaceSim(rdf.Literal(a), rdf.Literal(b)) },
	}
	for name, fn := range funcs {
		fn := fn
		prop := func(a, b string) bool {
			x, y := fn(a, b), fn(b, a)
			return x >= 0 && x <= 1 && almost(x, y, 1e-9)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Property: identity scores 1.
func TestSimilarityIdentityProperty(t *testing.T) {
	prop := func(a string) bool {
		return TokenJaccard(a, a) == 1 && TrigramJaccard(a, a) == 1 && SpaceSim(rdf.Literal(a), rdf.Literal(a)) == 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
