package sparql

import (
	"math"
	"strconv"
	"testing"

	"alex/internal/rdf"
)

// evalFilter parses a full query containing one FILTER and evaluates the
// filter expression directly under the given binding.
func evalFilter(t *testing.T, filter string, b Binding) (Value, error) {
	t.Helper()
	q, err := Parse(`SELECT ?x WHERE { ?x <http://p> ?y . FILTER` + filter + ` }`)
	if err != nil {
		t.Fatalf("parse %q: %v", filter, err)
	}
	if len(q.Where.Filters) != 1 {
		t.Fatalf("filters = %d", len(q.Where.Filters))
	}
	return q.Where.Filters[0].Eval(b)
}

func mustBool(t *testing.T, filter string, b Binding) bool {
	t.Helper()
	v, err := evalFilter(t, filter, b)
	if err != nil {
		t.Fatalf("eval %q: %v", filter, err)
	}
	ok, err := EffectiveBool(v)
	if err != nil {
		t.Fatalf("ebv %q: %v", filter, err)
	}
	return ok
}

func TestExprComparisons(t *testing.T) {
	b := Binding{"y": rdf.TypedLiteral("5", rdf.XSDInteger)}
	cases := []struct {
		filter string
		want   bool
	}{
		{`(?y = 5)`, true},
		{`(?y != 5)`, false},
		{`(?y < 6)`, true},
		{`(?y <= 5)`, true},
		{`(?y > 4)`, true},
		{`(?y >= 6)`, false},
		{`(?y = "5")`, true}, // numeric coercion
	}
	for _, c := range cases {
		if got := mustBool(t, c.filter, b); got != c.want {
			t.Errorf("%s = %v, want %v", c.filter, got, c.want)
		}
	}
}

func TestExprStringComparison(t *testing.T) {
	b := Binding{"y": rdf.Literal("banana")}
	if !mustBool(t, `(?y > "apple")`, b) {
		t.Error("lexicographic > failed")
	}
	if mustBool(t, `(?y = "cherry")`, b) {
		t.Error("inequal strings compared equal")
	}
}

func TestExprLogic(t *testing.T) {
	b := Binding{"y": rdf.TypedLiteral("5", rdf.XSDInteger)}
	cases := []struct {
		filter string
		want   bool
	}{
		{`(?y > 1 && ?y < 10)`, true},
		{`(?y > 9 && ?y < 10)`, false},
		{`(?y > 9 || ?y < 10)`, true},
		{`(!(?y = 5))`, false},
		{`(?y = 5 && !(?y = 6))`, true},
	}
	for _, c := range cases {
		if got := mustBool(t, c.filter, b); got != c.want {
			t.Errorf("%s = %v, want %v", c.filter, got, c.want)
		}
	}
}

func TestExprThreeValuedLogic(t *testing.T) {
	// ?z is unbound: (?z = 1) errors; FALSE && error must be false,
	// TRUE || error must be true (SPARQL three-valued logic).
	b := Binding{"y": rdf.TypedLiteral("5", rdf.XSDInteger)}
	if mustBool(t, `(?y = 6 && ?z = 1)`, b) {
		t.Error("false && error should be false")
	}
	if !mustBool(t, `(?y = 5 || ?z = 1)`, b) {
		t.Error("true || error should be true")
	}
	// error && true propagates the error
	if _, err := evalFilter(t, `(?z = 1 && ?y = 5)`, b); err == nil {
		t.Error("error && true should propagate error")
	}
}

func TestExprFunctions(t *testing.T) {
	b := Binding{
		"s":    rdf.Literal("Hello World"),
		"iri":  rdf.IRI("http://example.org/x"),
		"lang": rdf.LangLiteral("bonjour", "fr"),
		"num":  rdf.TypedLiteral("42", rdf.XSDInteger),
	}
	cases := []struct {
		filter string
		want   bool
	}{
		{`(CONTAINS(?s, "World"))`, true},
		{`(CONTAINS(?s, "world"))`, false},
		{`(CONTAINS(LCASE(?s), "world"))`, true},
		{`(STRSTARTS(?s, "Hello"))`, true},
		{`(STRENDS(?s, "World"))`, true},
		{`(STRLEN(?s) = 11)`, true},
		{`(UCASE(?s) = "HELLO WORLD")`, true},
		{`(ISIRI(?iri))`, true},
		{`(ISIRI(?s))`, false},
		{`(ISLITERAL(?s))`, true},
		{`(ISBLANK(?iri))`, false},
		{`(LANG(?lang) = "fr")`, true},
		{`(LANG(?s) = "")`, true},
		{`(DATATYPE(?num) = <` + rdf.XSDInteger + `>)`, true},
		{`(SAMETERM(?s, ?s))`, true},
		{`(SAMETERM(?s, ?iri))`, false},
		{`(STR(?iri) = "http://example.org/x")`, true},
		{`(BOUND(?s))`, true},
		{`(BOUND(?missing))`, false},
		{`(REGEX(?s, "^Hello"))`, true},
		{`(REGEX(?s, "world$", "i"))`, true},
		{`(REGEX(?s, "^Hello World$"))`, true},
		{`(REGEX(?s, "^World"))`, false},
	}
	for _, c := range cases {
		if got := mustBool(t, c.filter, b); got != c.want {
			t.Errorf("%s = %v, want %v", c.filter, got, c.want)
		}
	}
}

func TestExprUnboundVariableErrors(t *testing.T) {
	if _, err := evalFilter(t, `(?nope = 1)`, Binding{}); err == nil {
		t.Fatal("unbound variable evaluated without error")
	}
}

func TestExprFunctionArityChecked(t *testing.T) {
	bad := []string{
		`SELECT ?x WHERE { ?x <http://p> ?y . FILTER(CONTAINS(?y)) }`,
		`SELECT ?x WHERE { ?x <http://p> ?y . FILTER(STRLEN(?y, ?y)) }`,
		`SELECT ?x WHERE { ?x <http://p> ?y . FILTER(REGEX(?y)) }`,
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("arity error not caught: %s", q)
		}
	}
}

func TestEffectiveBoolValues(t *testing.T) {
	cases := []struct {
		v    Value
		want bool
	}{
		{Value{Kind: ValBool, Bool: true}, true},
		{Value{Kind: ValBool}, false},
		{Value{Kind: ValNumber, Num: 1}, true},
		{Value{Kind: ValNumber}, false},
		{Value{Kind: ValString, Str: "x"}, true},
		{Value{Kind: ValString}, false},
		{Value{Kind: ValTerm, Term: rdf.TypedLiteral("true", rdf.XSDBoolean)}, true},
		{Value{Kind: ValTerm, Term: rdf.TypedLiteral("0", rdf.XSDInteger)}, false},
		{Value{Kind: ValTerm, Term: rdf.Literal("nonempty")}, true},
	}
	for _, c := range cases {
		got, err := EffectiveBool(c.v)
		if err != nil {
			t.Errorf("%+v: %v", c.v, err)
			continue
		}
		if got != c.want {
			t.Errorf("EffectiveBool(%+v) = %v, want %v", c.v, got, c.want)
		}
	}
	if _, err := EffectiveBool(Value{Kind: ValTerm, Term: rdf.IRI("http://x")}); err == nil {
		t.Error("IRI has no effective boolean value")
	}
}

func TestExprBoolConstants(t *testing.T) {
	b := Binding{"y": rdf.TypedLiteral("5", rdf.XSDInteger)}
	if !mustBool(t, `(true)`, b) {
		t.Error("true constant")
	}
	if mustBool(t, `(false)`, b) {
		t.Error("false constant")
	}
}

// FuzzAsNumber holds asNumber's decision to strconv.ParseFloat's: a
// string or literal is a number exactly when ParseFloat returns no
// error, and then the same number.
func FuzzAsNumber(f *testing.F) {
	for _, s := range []string{"", "2020-01-15", "12", "-1.5e-3", "+Inf", "infinity", "nan", "+nan", "0x1p-2", "0x_1p0", "1_000", "1e400", "1e-400", ".5", "5.", "e5", "1e+", "--1", "alpha"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := strconv.ParseFloat(s, 64)
		for _, v := range []Value{{Kind: ValString, Str: s}, {Kind: ValTerm, Term: rdf.Literal(s)}} {
			got, ok := asNumber(v)
			if ok != (err == nil) || ok && math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("asNumber(%q) = %v, %t; ParseFloat: %v, %v", s, got, ok, want, err)
			}
		}
	})
}

// TestCompareDatesAllocatesNothing: comparing two xsd:date literals
// decides that neither is a number without making ParseFloat's error.
func TestCompareDatesAllocatesNothing(t *testing.T) {
	date := func(s string) Value {
		return Value{Kind: ValTerm, Term: rdf.Term{Kind: rdf.KindLiteral, Value: s, Datatype: "http://www.w3.org/2001/XMLSchema#date"}}
	}
	l, r := date("2020-01-15"), date("2021-06-30")
	if v, err := compareValues(opLt, l, r); err != nil || !v.Bool {
		t.Fatalf("2020-01-15 < 2021-06-30: %v, %v", v, err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = compareValues(opLt, l, r) }); allocs != 0 {
		t.Errorf("comparing two dates allocates %v times, want 0", allocs)
	}
}
