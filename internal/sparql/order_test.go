package sparql

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
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

// compareTermsForOrder orders two terms by the ORDER BY rule, through
// the same numeric keys and comparison a sort's cells use.
func compareTermsForOrder(a, b rdf.Term) int {
	af, aNum := numericKey(a.Value)
	bf, bNum := numericKey(b.Value)
	return compareLex(a.Value, af, aNum, b.Value, bf, bNum)
}

// adversarialForms are lexical forms on which "numeric when it scans"
// is least like a numeric order: "nancy" scans as NaN, which compares
// equal to every number, so the relation is not transitive; "12abc"
// scans its prefix; blanks are skipped but a leading newline is an
// error; Sscanf accepts hex floats and swallows underscores that
// ParseFloat then rejects. The last row tries the edges of the plain
// decimal ParseFloat reads without Sscanf: where the token stops (a
// second point, a blank, a date's dash), where it must not (an
// exponent, complete or not, a "p" exponent, a hex prefix), leading
// zeros, and a decimal past float64's range, which reads as no number.
var adversarialForms = []string{
	"nancy", "nan", "NaN", "inf", "-inf", "+Inf", "infinity", "info", "i", "n", "ni",
	"12abc", "12", "12.0", "012", "1e3", "1e", "e5", "1000", "0x1p4", "0x", "16", "1_000", "_1", "1__0",
	" 7", "\t7", "\n7", "\r\n7", "7 ", "\u00a07", "\u20037", "\u00857", "+.5", ".5", "-.5", ".", "-", "+", "--1", "0", "-0",
	"", "abc", "http://ds1.example.org/resource/E12", "Zed", "zed", "é", "1é", "\xff", "9\xff",
	"1902-03-31", "12.5.6", "1.e5", "9.", "5E", "12e+", "1p3", "1P3", "007", "0X1p-2", strings.Repeat("9", 400), "1 ",
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

// numberForms all scan as numbers, none NaN, and textForms none do, so
// a key whose cells come from one of them alone (and, for text,
// unbound cells) takes the prefix sort. Ties and shared 8-byte
// prefixes are common in both: equal numbers written differently, a
// date and its year, -0 and 0; texts equal up to a zero byte or past
// their eighth byte.
var (
	numberForms = []string{
		"12", "12.0", "012", "12abc", "-3.5", "0", "-0", "1e3", "1000", "+.5", ".5", "9.",
		"-inf", "inf", "+Inf", " 7", "7 ", "0x1p4", "16", "1902", "1902-03-31", "1902-11-02", "2001-01-01",
	}
	textForms = []string{
		"", "abc", "abc\x00", "abcdefgh", "abcdefgh\x00", "abcdefghi", "Zed", "zed", "é", "\xff", "n", "ni",
		"Springfield", "Lyon", "New York", "http://ds1.example.org/resource/E12",
		"http://ds1.example.org/resource/E120", "http://ds1.example.org/resource/E13",
	}
)

// orderPools are the cell pools a column draws from: adversarial forms
// (mostly the stable sort's input), numbers or text (the prefix
// sort's, when every ordered column draws from one of those two), and
// numbers with NaN among them, which must take the stable sort.
var orderPools = [][]string{adversarialForms, numberForms, textForms, append([]string{"nan", "NaN", "nancy"}, numberForms...)}

// bindsAll reports whether a column drawn from pool binds every cell:
// a number column does, or its unbound cells would make it mixed.
func bindsAll(pool int) bool { return pool == 1 || pool == 3 }

// orderTerm is the term a pool's form stands for; text is an IRI half
// of the time, which ORDER BY compares by its value like a literal.
func orderTerm(form string, pool int, iri bool) rdf.Term {
	if pool == 2 && iri {
		return rdf.IRI(form)
	}
	return rdf.Literal(form)
}

// checkOrderAgainstReference finalizes rows under q and fails unless
// the rows are the reference sort's permutation, cut by OFFSET and
// LIMIT.
func checkOrderAgainstReference(t *testing.T, vars []string, rows []Binding, q *Query) {
	t.Helper()
	d := rdf.NewDict()
	proj := new(Scratch).Finalize(q, d, encodeBindings(d, vars, rows))
	res := proj.Result()

	want := make([]Binding, len(rows))
	for i, r := range rows {
		want[i] = Binding{}
		for _, v := range res.Vars {
			if term, ok := r[v]; ok {
				want[i][v] = term
			}
		}
	}
	referenceOrder(want, q.OrderBy)
	want = want[min(q.Offset, len(want)):]
	if q.Limit >= 0 && q.Limit < len(want) {
		want = want[:q.Limit]
	}
	if got := res.Rows; (len(got) > 0 || len(want) > 0) && !reflect.DeepEqual(got, want) {
		t.Fatalf("ORDER BY %+v OFFSET %d LIMIT %d over %v: rows differ from the reference sort\n got %v\nwant %v",
			q.OrderBy, q.Offset, q.Limit, res.Vars, got, want)
	}
}

// TestOrderPoolClasses keeps the pools honest: a number form scans as
// a number that is not NaN, and a text form scans as none.
func TestOrderPoolClasses(t *testing.T) {
	for _, f := range numberForms {
		if x, ok := numericKey(f); !ok || math.IsNaN(x) {
			t.Errorf("number form %q reads as (%v, %v)", f, x, ok)
		}
	}
	for _, f := range textForms {
		if x, ok := numericKey(f); ok {
			t.Errorf("text form %q reads as the number %v", f, x)
		}
	}
}

// TestOrderByPermutationMatchesReference: over random multisets of
// cells, Finalize returns rows in exactly the permutation the
// reference sort produces, cut by a random OFFSET and LIMIT. Each
// column draws from one pool. Adversarial forms, and numbers with NaN,
// make the comparison no strict weak order, and the outcome then
// depends on the sorting algorithm's every step. Number and text pools
// make it one, and keys drawn from those alone take the prefix sort. Keys are ascending and
// descending, bound and unbound, projected and (ordering nothing) not
// projected.
func TestOrderByPermutationMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	vars := []string{"a", "b", "c"}
	for trial := 0; trial < 600; trial++ {
		n := 2 + rng.Intn(60)
		pools := make([]int, len(vars))
		for j := range pools {
			pools[j] = rng.Intn(len(orderPools))
		}
		rows := make([]Binding, n)
		for i := range rows {
			rows[i] = Binding{}
			for j, v := range vars {
				if bindsAll(pools[j]) || rng.Intn(6) > 0 {
					pool := orderPools[pools[j]]
					rows[i][v] = orderTerm(pool[rng.Intn(len(pool))], pools[j], rng.Intn(2) == 0)
				}
			}
		}
		q := &Query{Vars: []string{"a", "b"}, Limit: -1}
		if rng.Intn(4) == 0 {
			q.Vars = nil // SELECT *: all three, so ?c orders too
		}
		if rng.Intn(2) == 0 {
			q.Limit = rng.Intn(n + 2)
		}
		if rng.Intn(2) == 0 {
			q.Offset = rng.Intn(n + 2)
		}
		for _, v := range vars[:1+rng.Intn(len(vars))] {
			q.OrderBy = append(q.OrderBy, OrderKey{Var: v, Desc: rng.Intn(2) == 0})
		}
		rng.Shuffle(len(q.OrderBy), func(i, j int) { q.OrderBy[i], q.OrderBy[j] = q.OrderBy[j], q.OrderBy[i] })
		checkOrderAgainstReference(t, vars, rows, q)
	}
}

// FuzzOrderByPermutation holds Finalize's ORDER BY, OFFSET and LIMIT
// to the reference sort on rows built from fuzz bytes. The first byte
// picks each column's pool (two bits a column, an index into
// orderPools), the second the keys and their directions, the third and
// fourth OFFSET and LIMIT; then each two bytes are a row, a byte a
// cell: its low bit binds an IRI or a literal, the rest picks a form
// of the pool, or leaves the cell unbound past its end. Rows past 64
// are dropped: the reference sort scans its cells afresh at every
// comparison, and a long input would spend the budget on few runs.
func FuzzOrderByPermutation(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0, 255, 3, 7, 9, 11, 40, 2, 14, 200})
	f.Add([]byte{0x05, 0x1b, 1, 3, 2, 4, 6, 8, 10, 12, 14, 16, 2, 4})
	f.Add([]byte{0x0a, 0x06, 0, 255, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 30, 31})
	f.Add([]byte{0x09, 0x0f, 2, 5, 9, 9, 9, 8, 7, 7, 0, 0, 255, 255, 44, 46})
	f.Add([]byte{0x0f, 0x01, 0, 255, 0, 2, 6, 4, 2, 0, 8, 10, 4, 6})
	f.Add([]byte{0x05, 0x00, 0, 255}) // no rows
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		vars := []string{"a", "b"}
		classes, keys, offset, limit := data[0], data[1], int(data[2]), int(data[3])
		q := &Query{Vars: vars, Offset: offset, Limit: limit}
		if limit == 255 {
			q.Limit = -1
		}
		// keys: bit 0 a second key; bit 1 ?b first; bits 2, 3 descending.
		first, second := vars[keys>>1&1], vars[1-keys>>1&1]
		q.OrderBy = []OrderKey{{Var: first, Desc: keys&4 != 0}}
		if keys&1 != 0 {
			q.OrderBy = append(q.OrderBy, OrderKey{Var: second, Desc: keys&8 != 0})
		}
		var rows []Binding
		for cells := data[4:]; len(cells) >= len(vars) && len(rows) < 64; cells = cells[len(vars):] {
			row := Binding{}
			for j, v := range vars {
				pool := int(classes >> (2 * j) & 3)
				if forms, i := orderPools[pool], int(cells[j]>>1); i < len(forms) {
					row[v] = orderTerm(forms[i], pool, cells[j]&1 != 0)
				}
			}
			rows = append(rows, row)
		}
		checkOrderAgainstReference(t, vars, rows, q)
	})
}

// TestOrderBySortsConcurrently: queries sorting at once, each in a
// Scratch whose cell table an earlier job of its goroutine used, return
// the rows they return alone — a table too large to keep among them.
func TestOrderBySortsConcurrently(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vars := []string{"a", "b"}
	d := rdf.NewDict()
	type job struct {
		q    *Query
		sols Solutions
		want *Result
	}
	jobs := make([]job, 12)
	for i := range jobs {
		rows := make([]Binding, 1+rng.Intn(300))
		if i == 0 {
			rows = make([]Binding, maxPooledCells) // two keys: twice what the pool keeps
		}
		for r := range rows {
			rows[r] = Binding{
				"a": rdf.Literal(adversarialForms[rng.Intn(len(adversarialForms))]),
				"b": rdf.Literal(adversarialForms[rng.Intn(len(adversarialForms))]),
			}
		}
		q := &Query{Vars: vars, Limit: -1, OrderBy: []OrderKey{{Var: "a"}, {Var: "b", Desc: true}}}
		sols := encodeBindings(d, vars, rows)
		proj := new(Scratch).Finalize(q, d, sols)
		jobs[i] = job{q, sols, proj.Result()}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc Scratch
			for i := 0; i < 40; i++ {
				j := jobs[(g*5+i)%len(jobs)]
				proj := sc.Finalize(j.q, d, j.sols)
				if got := proj.Result(); !reflect.DeepEqual(got, j.want) {
					t.Errorf("goroutine %d, job %d: rows differ from the same sort run alone", g, (g*5+i)%len(jobs))
					return
				}
			}
		}()
	}
	wg.Wait()
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
// "text" has the workload's value classes — every key's cells are
// text, so it takes the prefix sort — and is the finalizer's share of
// federation.query_us.wide. "mixed" puts a year ("1770") and a name
// that scans as NaN ("Nantes") among the hometowns, so it measures the
// stable sort that such keys fall back to.
func BenchmarkFinalizeOrderBy(b *testing.B) {
	for _, bc := range []struct {
		name   string
		places []string
	}{
		{"text", []string{"Springfield", "Lyon", "Ipswich", "Boston", "Indianapolis", "New York", "Innsbruck", "Osaka"}},
		{"mixed", []string{"Springfield", "Nantes", "Ipswich", "1770", "Indianapolis", "New York", "Innsbruck", "Osaka"}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			vars := []string{"e", "l", "h"}
			rows := make([]Binding, 200)
			for i := range rows {
				rows[i] = Binding{
					"e": rdf.IRI(fmt.Sprintf("http://ds1.example.org/resource/E%d", rng.Intn(1200))),
					"l": rdf.Literal(fmt.Sprintf("%c%c person %d", 'A'+rng.Intn(26), 'a'+rng.Intn(26), rng.Intn(400))),
					"h": rdf.Literal(bc.places[rng.Intn(len(bc.places))]),
				}
			}
			d := rdf.NewDict()
			sols := encodeBindings(d, vars, rows)
			q := &Query{Vars: vars, Limit: 50, OrderBy: []OrderKey{{Var: "h"}, {Var: "e"}, {Var: "l"}}}
			var sc Scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := sc.Finalize(q, d, sols); res.Len() != 50 {
					b.Fatalf("rows=%d", res.Len())
				}
			}
		})
	}
}
