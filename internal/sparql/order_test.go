package sparql

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"alex/internal/rdf"
)

// referenceCompare is the ORDER BY comparison as it stood before order
// keys were cached — two Sscanf calls per comparison — kept verbatim as
// the reference the keyed comparison must agree with on every input,
// quirks included.
func referenceCompare(a, b rdf.Term) int {
	as, bs := a.Value, b.Value
	// numeric-aware ordering
	var af, bf float64
	if _, errA := fmt.Sscanf(as, "%g", &af); errA == nil {
		if _, errB := fmt.Sscanf(bs, "%g", &bf); errB == nil {
			switch {
			case af < bf:
				return -1
			case af > bf:
				return 1
			default:
				return 0
			}
		}
	}
	return strings.Compare(as, bs)
}

// adversarialForms are lexical forms on which "numeric when it scans"
// is least like a numeric order: "nancy" scans as NaN, which compares
// equal to every number, so the relation is not transitive; "12abc"
// scans its prefix; blanks are skipped but a leading newline is an
// error; Sscanf accepts hex floats and swallows underscores that
// ParseFloat then rejects.
var adversarialForms = []string{
	"nancy", "nan", "NaN", "inf", "-inf", "+Inf", "infinity", "info", "i", "n", "ni",
	"12abc", "12", "12.0", "012", "1e3", "1e", "e5", "1000", "0x1p4", "0x", "16", "1_000", "_1", "1__0",
	" 7", "\t7", "\n7", "\r\n7", "7 ", "\u00a07", "\u20037", "\u00857", "+.5", ".5", "-.5", ".", "-", "+", "--1", "0", "-0",
	"", "abc", "http://ds1.example.org/resource/E12", "Zed", "zed", "é", "1é", "\xff", "9\xff",
}

// TestOrderKeyMatchesReference: the cached-key comparison orders every
// pair of adversarial forms, an unbound key among them, exactly as the
// reference does.
func TestOrderKeyMatchesReference(t *testing.T) {
	terms := []rdf.Term{{}} // the zero Term is how an unbound key reads
	for _, f := range adversarialForms {
		terms = append(terms, rdf.Literal(f))
	}
	for _, a := range terms {
		for _, b := range terms {
			if got, want := compareTermsForOrder(a, b), referenceCompare(a, b); got != want {
				t.Errorf("compare(%q, %q) = %d, reference %d", a.Value, b.Value, got, want)
			}
		}
	}
	for _, f := range adversarialForms {
		var x float64
		_, err := fmt.Sscanf(f, "%g", &x)
		if !mayScanFloat(f) && err == nil {
			t.Errorf("mayScanFloat(%q) = false, but Sscanf read %g", f, x)
		}
	}
}

// referenceOrder is ORDER BY as Finalize used to run it: a stable sort
// of the decoded, projected rows under referenceCompare.
func referenceOrder(rows []Binding, by []OrderKey) {
	sort.SliceStable(rows, func(i, j int) bool {
		for _, key := range by {
			c := referenceCompare(rows[i][key.Var], rows[j][key.Var])
			if c == 0 {
				continue
			}
			if key.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

// TestOrderByPermutationMatchesReference: over random multisets of
// adversarial forms — where the comparison is not a strict weak order
// and the outcome depends on the sorting algorithm's every step —
// Finalize returns rows in exactly the permutation the reference sort
// produces. Keys are ascending and descending, bound and unbound,
// projected and (ordering nothing) not projected.
func TestOrderByPermutationMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	vars := []string{"a", "b", "c"}
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(60)
		rows := make([]Binding, n)
		for i := range rows {
			rows[i] = Binding{}
			for _, v := range vars {
				if rng.Intn(6) > 0 {
					rows[i][v] = rdf.Literal(adversarialForms[rng.Intn(len(adversarialForms))])
				}
			}
		}
		q := &Query{Vars: []string{"a", "b"}, Limit: -1}
		if rng.Intn(4) == 0 {
			q.Vars = nil // SELECT *: all three, so ?c orders too
		}
		for _, v := range vars[:1+rng.Intn(len(vars))] {
			q.OrderBy = append(q.OrderBy, OrderKey{Var: v, Desc: rng.Intn(2) == 0})
		}
		rng.Shuffle(len(q.OrderBy), func(i, j int) { q.OrderBy[i], q.OrderBy[j] = q.OrderBy[j], q.OrderBy[i] })

		d := rdf.NewDict()
		proj, err := Finalize(q, d, encodeBindings(d, vars, rows))
		if err != nil {
			t.Fatal(err)
		}
		res := proj.Result()

		want := make([]Binding, n)
		for i, r := range rows {
			want[i] = Binding{}
			for _, v := range res.Vars {
				if term, ok := r[v]; ok {
					want[i][v] = term
				}
			}
		}
		referenceOrder(want, q.OrderBy)
		if !reflect.DeepEqual(res.Rows, want) {
			t.Fatalf("trial %d (ORDER BY %+v over %v): permutation differs from the reference sort\n got %v\nwant %v",
				trial, q.OrderBy, res.Vars, res.Rows, want)
		}
	}
}

// FuzzOrderKey holds the keyed comparison to the reference on arbitrary
// lexical forms, and the pre-filter in front of Sscanf to Sscanf.
func FuzzOrderKey(f *testing.F) {
	for i, a := range adversarialForms {
		f.Add(a, adversarialForms[(i*7+3)%len(adversarialForms)])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		ta, tb := rdf.Literal(a), rdf.Literal(b)
		if got, want := compareTermsForOrder(ta, tb), referenceCompare(ta, tb); got != want {
			t.Fatalf("compare(%q, %q) = %d, reference %d", a, b, got, want)
		}
		var x float64
		if _, err := fmt.Sscanf(a, "%g", &x); err == nil && !mayScanFloat(a) {
			t.Fatalf("mayScanFloat(%q) = false, but Sscanf read %g", a, x)
		}
	})
}

// BenchmarkFinalizeOrderBy measures Finalize on bench/e2e's wide shape
// as the executor hands it over at scale 0.5: some two hundred ID rows
// of entity IRI, label and hometown, a three-key ORDER BY, LIMIT 50.
// It is the finalizer's share of federation.query_us.wide: what parsing
// each key once (and not parsing IRIs at all) buys shows here.
func BenchmarkFinalizeOrderBy(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vars := []string{"e", "l", "h"}
	places := []string{"Springfield", "Nantes", "Ipswich", "1770", "Indianapolis", "New York", "Innsbruck", "Osaka"}
	rows := make([]Binding, 200)
	for i := range rows {
		rows[i] = Binding{
			"e": rdf.IRI(fmt.Sprintf("http://ds1.example.org/resource/E%d", rng.Intn(1200))),
			"l": rdf.Literal(fmt.Sprintf("%c%c person %d", 'A'+rng.Intn(26), 'a'+rng.Intn(26), rng.Intn(400))),
			"h": rdf.Literal(places[rng.Intn(len(places))]),
		}
	}
	d := rdf.NewDict()
	sols := encodeBindings(d, vars, rows)
	q := &Query{Vars: vars, Limit: 50, OrderBy: []OrderKey{{Var: "h"}, {Var: "e"}, {Var: "l"}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Finalize(q, d, sols)
		if err != nil || res.Len() != 50 {
			b.Fatalf("rows=%d err=%v", res.Len(), err)
		}
	}
}
