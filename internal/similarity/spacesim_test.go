package similarity

import (
	"testing"
	"time"

	"alex/internal/rdf"
)

func TestSpaceSimIdentity(t *testing.T) {
	if got := SpaceSim(rdf.Literal("abc"), rdf.Literal("abc")); got != 1 {
		t.Fatalf("identity = %f", got)
	}
	if got := SpaceSim(rdf.IRI("http://a/X"), rdf.IRI("http://a/X")); got != 1 {
		t.Fatalf("IRI identity = %f", got)
	}
}

func TestSpaceSimUnrelatedStringsNearZero(t *testing.T) {
	pairs := [][2]string{
		{"Quentin Harwood", "Bellatrix Omondi"},
		{"mitochondrial enzyme", "downtown traffic report"},
		{"zzzz", "aaaa"},
	}
	for _, p := range pairs {
		if got := SpaceSim(rdf.Literal(p[0]), rdf.Literal(p[1])); got >= 0.3 {
			t.Errorf("SpaceSim(%q,%q) = %f, want < 0.3", p[0], p[1], got)
		}
	}
}

func TestSpaceSimVariantsAboveTheta(t *testing.T) {
	pairs := [][2]string{
		{"LeBron James", "James, LeBron"},
		{"LeBron James", "LeBron James"},
		{"International Business Machines", "International Business Machine"},
	}
	for _, p := range pairs {
		if got := SpaceSim(rdf.Literal(p[0]), rdf.Literal(p[1])); got < 0.4 {
			t.Errorf("SpaceSim(%q,%q) = %f, want ≥ 0.4", p[0], p[1], got)
		}
	}
}

func TestSpaceSimDates(t *testing.T) {
	a := rdf.TypedLiteral("1984-12-30", rdf.XSDDate)
	day := rdf.TypedLiteral("1984-12-31", rdf.XSDDate)
	year := rdf.TypedLiteral("1990-12-30", rdf.XSDDate)
	if got := SpaceSim(a, day); got < 0.99 {
		t.Errorf("one day apart = %f", got)
	}
	if got := SpaceSim(a, year); got != 0 {
		t.Errorf("six years apart = %f, want 0", got)
	}
}

func TestSpaceSimNumbers(t *testing.T) {
	if got := SpaceSim(rdf.Literal("1984"), rdf.Literal("1985")); got != 0.9 {
		t.Errorf("adjacent years = %f, want 0.9", got)
	}
	if got := SpaceSim(rdf.Literal("1984"), rdf.Literal("2020")); got != 0 {
		t.Errorf("far years = %f, want 0", got)
	}
}

// TestSpaceSimNonFiniteLexicalForms: "Nan" is a given name and
// "Infinity" a word. Read as numbers, Inf − Inf made SpaceSim return
// NaN.
func TestSpaceSimNonFiniteLexicalForms(t *testing.T) {
	forms := []rdf.Term{
		rdf.Literal("Nan"), rdf.Literal("inf"), rdf.Literal("Infinity"), rdf.Literal("-Inf"),
		rdf.TypedLiteral("NaN", rdf.XSDDouble), rdf.TypedLiteral("INF", rdf.XSDDouble), rdf.Literal("7"),
	}
	for _, a := range forms {
		for _, b := range forms {
			if got := SpaceSim(a, b); !(got >= 0 && got <= 1) {
				t.Errorf("SpaceSim(%v, %v) = %v, want a score in [0, 1]", a, b, got)
			}
		}
	}
	if got := SpaceSim(rdf.Literal("Nan"), rdf.TypedLiteral("NaN", rdf.XSDDouble)); got != 1 {
		t.Errorf(`"Nan" against "NaN"^^xsd:double = %v, want 1: the same string`, got)
	}
	if got := SpaceSim(rdf.Literal("Nan"), rdf.Literal("7")); got != 0 {
		t.Errorf(`"Nan" against "7" = %v, want 0: a string against a number`, got)
	}
}

func TestSpaceSimKindMismatch(t *testing.T) {
	if got := SpaceSim(rdf.Literal("1984-12-30"), rdf.Literal("hello there world")); got != 0 {
		t.Errorf("date vs string = %f, want 0", got)
	}
	if got := SpaceSim(rdf.IRI("http://a"), rdf.Literal("a")); got != 0 {
		t.Errorf("IRI vs literal = %f, want 0", got)
	}
}

func TestDateWindow(t *testing.T) {
	base := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	if got := DateWindow(base, base, time.Hour); got != 1 {
		t.Fatalf("same = %f", got)
	}
	if got := DateWindow(base, base.Add(30*time.Minute), time.Hour); got != 0.5 {
		t.Fatalf("half window = %f", got)
	}
	if got := DateWindow(base, base.Add(2*time.Hour), time.Hour); got != 0 {
		t.Fatalf("outside window = %f", got)
	}
}

func TestNumericWindow(t *testing.T) {
	if got := NumericWindow(5, 5, 10); got != 1 {
		t.Fatalf("same = %f", got)
	}
	if got := NumericWindow(0, 5, 10); got != 0.5 {
		t.Fatalf("half = %f", got)
	}
	if got := NumericWindow(0, 50, 10); got != 0 {
		t.Fatalf("outside = %f", got)
	}
	if got := NumericWindow(1, 2, 0); got != 0 {
		t.Fatalf("zero window = %f", got)
	}
}
