package feature

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"alex/internal/rdf"
	"alex/internal/similarity"
)

// TestSigTableMatchesSpaceSim verifies the signature similarity (the
// pairwise oracle the row fill is held to) agrees with the reference
// similarity.SpaceSim on a broad set of term pairs, among them the
// lexical forms strconv.ParseFloat takes for NaN and ±Inf: they are
// strings, and no score is NaN.
func TestSigTableMatchesSpaceSim(t *testing.T) {
	terms := []rdf.Term{
		rdf.Literal("LeBron James"),
		rdf.Literal("James, LeBron"),
		rdf.Literal("Kevin Durant"),
		rdf.Literal("kevin  durant"),
		rdf.Literal("Zinedine Zidane"),
		rdf.Literal(""),
		rdf.Literal("42"),
		rdf.Literal("45"),
		rdf.Literal("1984-12-30"),
		rdf.Literal("1984-12-31"),
		rdf.Literal("1994-12-30"),
		rdf.TypedLiteral("1984-12-30", rdf.XSDDate),
		rdf.TypedLiteral("7", rdf.XSDInteger),
		rdf.TypedLiteral("7.5", rdf.XSDDecimal),
		rdf.IRI("http://x.org/LeBron_James"),
		rdf.IRI("http://y.org/LeBron_James"),
		rdf.IRI("http://y.org/Tim_Duncan"),
		rdf.Literal("Thing"),
		rdf.Literal("Nan"),
		rdf.Literal("inf"),
		rdf.Literal("Infinity"),
		rdf.Literal("-Inf"),
		rdf.TypedLiteral("NaN", rdf.XSDDouble),
		rdf.LangLiteral("", "en"), // a second empty literal: 0 against the first, 1 against itself
	}
	d := rdf.NewDict()
	ids := make([]rdf.ID, len(terms))
	for i, tm := range terms {
		ids[i] = d.Intern(tm)
	}
	tab := newSigTable(d)
	for i, a := range terms {
		for j, b := range terms {
			want := similarity.SpaceSim(a, b)
			got := tab.sim(ids[i], ids[j])
			// Not "diff > eps": that is false for NaN.
			if !(math.Abs(got-want) <= 1e-9) {
				t.Errorf("sim(%v, %v): fast=%f reference=%f", a, b, got, want)
			}
		}
	}
}

// Property: the table similarity is symmetric, in [0,1] (so never NaN),
// and 1 on identical IDs. The table is rebuilt after every intern
// because it only covers terms present at construction time.
func TestSigTableProperties(t *testing.T) {
	d := rdf.NewDict()
	prop := func(a, b string) bool {
		ia := d.Intern(rdf.Literal(a))
		ib := d.Intern(rdf.Literal(b))
		tab := newSigTable(d)
		x := tab.sim(ia, ib)
		y := tab.sim(ib, ia)
		return !math.IsNaN(x) && x >= 0 && x <= 1 && math.Abs(x-y) < 1e-9 && tab.sim(ia, ia) == 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// quick's random strings never spell these.
	for _, pair := range [][2]string{{"Nan", "7"}, {"Infinity", "inf"}, {"-Inf", "+Inf"}, {"NaN", "nan"}} {
		if !prop(pair[0], pair[1]) {
			t.Errorf("property fails for %q, %q", pair[0], pair[1])
		}
	}
}

func TestJaccardSorted(t *testing.T) {
	cases := []struct {
		a, b []uint32
		want float64
	}{
		{nil, nil, 0},
		{[]uint32{1}, nil, 0},
		{[]uint32{1, 2, 3}, []uint32{1, 2, 3}, 1},
		{[]uint32{1, 2}, []uint32{2, 3}, 1.0 / 3},
		{[]uint32{1}, []uint32{2}, 0},
	}
	for _, c := range cases {
		if got := jaccardSorted(c.a, c.b); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("jaccardSorted(%v,%v) = %f, want %f", c.a, c.b, got, c.want)
		}
	}
}

// TestJaccardSortedMatchesMapReference holds the branch-free merge to a
// map-based intersection/union on random sorted-unique pairs and on the
// shapes a merge loop gets wrong: empty, equal, disjoint, nested, and
// either side running out first.
func TestJaccardSortedMatchesMapReference(t *testing.T) {
	reference := func(a, b []uint32) float64 {
		in := make(map[uint32]bool, len(a))
		for _, x := range a {
			in[x] = true
		}
		inter := 0
		for _, y := range b {
			if in[y] {
				inter++
			}
		}
		if union := len(a) + len(b) - inter; inter > 0 {
			return float64(inter) / float64(union)
		}
		return 0
	}
	rng := rand.New(rand.NewSource(21))
	// draw returns n distinct values below span, ascending.
	draw := func(n, span int) []uint32 {
		out := make([]uint32, 0, n)
		for _, v := range rng.Perm(span)[:n] {
			out = append(out, uint32(v))
		}
		return dedupSorted(out)
	}
	evens := []uint32{0, 2, 4, 6, 8}
	pairs := [][2][]uint32{
		{nil, nil}, {nil, evens}, {evens, nil},
		{evens, evens},
		{evens, {1, 3, 5, 7}},            // disjoint, interleaved
		{{1, 2, 3}, {10, 11}},            // a exhausted first
		{{10, 11}, {1, 2, 3}},            // b exhausted first
		{evens, {2, 4}}, {{2, 4}, evens}, // nested
		{{0, math.MaxUint32}, {math.MaxUint32}}, // the extremes
	}
	for i := 0; i < 2000; i++ {
		span := 1 + rng.Intn(40)
		pairs = append(pairs, [2][]uint32{draw(rng.Intn(span+1), span), draw(rng.Intn(span+1), span)})
	}
	for _, p := range pairs {
		if got, want := jaccardSorted(p[0], p[1]), reference(p[0], p[1]); got != want {
			t.Fatalf("jaccardSorted(%v, %v) = %v, map reference %v", p[0], p[1], got, want)
		}
	}
}

func TestDedupSorted(t *testing.T) {
	got := dedupSorted([]uint32{5, 1, 5, 3, 1})
	want := []uint32{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("dedupSorted = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dedupSorted = %v, want %v", got, want)
		}
	}
	if out := dedupSorted(nil); len(out) != 0 {
		t.Fatal("dedupSorted(nil) not empty")
	}
}
