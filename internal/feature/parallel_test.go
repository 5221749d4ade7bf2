package feature

import (
	"fmt"
	"reflect"
	"testing"

	"alex/internal/links"
	"alex/internal/rdf"
	"alex/internal/similarity"
	"alex/internal/synth"
)

// testScale keeps the exhaustive per-profile equivalence tests fast
// enough to run under -race: the largest profile (dbpedia-opencyc,
// 2400×1500) shrinks to 120×75.
const testScale = 0.05

// sameSpace asserts two spaces are identical in every observable and
// internal respect: the unfiltered size, the per-link feature sets, and
// the per-feature sorted index (order included — FindInRange answer
// order must not depend on how the space was built).
func sameSpace(t *testing.T, label string, got, want *Space) {
	t.Helper()
	if got.TotalPairs != want.TotalPairs {
		t.Fatalf("%s: TotalPairs = %d, want %d", label, got.TotalPairs, want.TotalPairs)
	}
	if !reflect.DeepEqual(got.sets, want.sets) {
		t.Fatalf("%s: feature sets differ (got %d links, want %d)", label, len(got.sets), len(want.sets))
	}
	if !reflect.DeepEqual(got.index, want.index) {
		t.Fatalf("%s: index differs (got %d keys, want %d)", label, len(got.index), len(want.index))
	}
}

// TestBuildDeterministic is the regression test for the historical
// nondeterministic tie ordering in Space.index: building the same space
// twice must produce byte-identical indexes, map iteration order
// notwithstanding.
func TestBuildDeterministic(t *testing.T) {
	prof, _ := synth.ProfileByName("dbpedia-nytimes")
	ds := synth.Generate(prof.Scale(testScale))
	opts := Options{Theta: DefaultTheta, Workers: 4}
	a := Build(ds.G1, ds.G2, ds.Entities1, ds.Entities2, opts)
	b := Build(ds.G1, ds.G2, ds.Entities1, ds.Entities2, opts)
	if a.Len() == 0 {
		t.Fatal("space is empty; test proves nothing")
	}
	sameSpace(t, "second build", b, a)
}

// TestParallelMatchesSerial checks the tentpole determinism claim on
// every synth profile: a Workers:8 build is identical to Workers:1.
func TestParallelMatchesSerial(t *testing.T) {
	for _, prof := range synth.Profiles() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			ds := synth.Generate(prof.Scale(testScale))
			serial := Build(ds.G1, ds.G2, ds.Entities1, ds.Entities2, Options{Theta: DefaultTheta, Workers: 1})
			parallel := Build(ds.G1, ds.G2, ds.Entities1, ds.Entities2, Options{Theta: DefaultTheta, Workers: 8})
			if serial.Len() == 0 {
				t.Fatal("space is empty; test proves nothing")
			}
			sameSpace(t, "workers=8", parallel, serial)
		})
	}
}

// TestBuildPartitionsMatchesBuild checks that preparing the dataset-2
// side once for all partitions (as core.New does) changes nothing: each
// partition's space is the one its stand-alone Build produces.
func TestBuildPartitionsMatchesBuild(t *testing.T) {
	prof, _ := synth.ProfileByName("opencyc-drugbank")
	ds := synth.Generate(prof.Scale(testScale))
	parts := PartitionRoundRobin(ds.Entities1, 5)
	for _, workers := range []int{1, 8} {
		opts := Options{Theta: DefaultTheta, Workers: workers}
		spaces := BuildPartitions(ds.G1, ds.G2, parts, ds.Entities2, opts)
		if len(spaces) != len(parts) {
			t.Fatalf("workers=%d: %d spaces for %d partitions", workers, len(spaces), len(parts))
		}
		for pi, part := range parts {
			alone := Build(ds.G1, ds.G2, part, ds.Entities2, opts)
			if alone.Len() == 0 {
				t.Fatal("space is empty; test proves nothing")
			}
			sameSpace(t, fmt.Sprintf("workers=%d partition %d", workers, pi), spaces[pi], alone)
		}
	}
}

// TestRowFillMatchesPairwise holds the index-filled memo rows to the
// pairwise oracle on every synth profile: the space is the one a build
// that asks sigTable.sim for every pair of values produces, at θ=0
// (every score is kept, the zeros included) and at the default.
func TestRowFillMatchesPairwise(t *testing.T) {
	scale := 0.2
	if testing.Short() {
		scale = testScale
	}
	for _, prof := range synth.Profiles() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			ds := synth.Generate(prof.Scale(scale))
			pairwise := newSigTable(ds.Dict).asSim(ds.Dict)
			for _, theta := range []float64{0, DefaultTheta} {
				filled := Build(ds.G1, ds.G2, ds.Entities1, ds.Entities2, Options{Theta: theta, Workers: 2})
				asked := Build(ds.G1, ds.G2, ds.Entities1, ds.Entities2, Options{Theta: theta, Workers: 2, Sim: pairwise})
				if asked.Len() == 0 {
					t.Fatal("space is empty; test proves nothing")
				}
				sameSpace(t, fmt.Sprintf("θ=%g", theta), filled, asked)
			}
		})
	}
}

// valueGraphs builds two graphs over one dictionary with one entity per
// value, each holding that value under its graph's single predicate: at
// θ=0 the space then has one link per pair of values, whose one feature
// is their score.
func valueGraphs(vals1, vals2 []rdf.Term) (g1, g2 *rdf.Graph, d *rdf.Dict) {
	d = rdf.NewDict()
	g1, g2 = rdf.NewGraphWithDict(d), rdf.NewGraphWithDict(d)
	for i, v := range vals1 {
		g1.Insert(rdf.Triple{S: rdf.IRI(fmt.Sprintf("http://ds1/e%d", i)), P: rdf.IRI("http://ds1/p"), O: v})
	}
	for i, v := range vals2 {
		g2.Insert(rdf.Triple{S: rdf.IRI(fmt.Sprintf("http://ds2/e%d", i)), P: rdf.IRI("http://ds2/p"), O: v})
	}
	return g1, g2, d
}

// rowFillVsPairwise builds the θ=0 space of valueGraphs(vals1, vals2)
// from index-filled rows, requires it to equal the pairwise oracle's
// and every score to be a finite number in [0, 1], and returns a lookup
// of the score of vals1[i] against vals2[j].
func rowFillVsPairwise(t *testing.T, vals1, vals2 []rdf.Term) func(i, j int) float64 {
	t.Helper()
	g1, g2, d := valueGraphs(vals1, vals2)
	e1, e2 := g1.SubjectIDs(), g2.SubjectIDs()
	filled := Build(g1, g2, e1, e2, Options{Theta: 0, Workers: 1})
	asked := Build(g1, g2, e1, e2, Options{Theta: 0, Workers: 1, Sim: newSigTable(d).asSim(d)})
	sameSpace(t, "row fill vs pairwise", filled, asked)
	if filled.Len() != len(e1)*len(e2) {
		t.Fatalf("θ=0 kept %d of %d pairs", filled.Len(), len(e1)*len(e2))
	}
	for l, set := range filled.sets {
		for _, f := range set {
			if !(f.Score >= 0 && f.Score <= 1) {
				t.Fatalf("link %v: score %v is not in [0, 1]", l, f.Score)
			}
		}
	}
	return func(i, j int) float64 {
		l := links.Link{E1: mustID(d, fmt.Sprintf("http://ds1/e%d", i)), E2: mustID(d, fmt.Sprintf("http://ds2/e%d", j))}
		return filled.FeatureSet(l)[0].Score
	}
}

// TestRowFillAwkwardValues runs the row fill over the values where an
// overlap count and a pairwise comparison could part ways, and pins what
// they score. "Nan" and "Infinity" are the regression for NaN scores:
// strconv.ParseFloat takes them for numbers, and a window over them is
// NaN, which passed the θ filter into the space.
func TestRowFillAwkwardValues(t *testing.T) {
	vals := []rdf.Term{
		rdf.Literal(""),
		rdf.LangLiteral("", "en"),
		rdf.Literal("Kevin Durant"),
		rdf.Literal("kevin  durant"),
		rdf.IRI("http://x.org/Kevin_Durant"),
		rdf.IRI("http://y.org/kevin-durant"),
		rdf.Literal("7"),
		rdf.TypedLiteral("7", rdf.XSDInteger),
		rdf.Literal("7.5"),
		rdf.Literal("1984-12-30"),
		rdf.TypedLiteral("1985-12-29", rdf.XSDDate), // 364 days on
		rdf.Literal("1985-12-30"),                   // 365 days on
		rdf.Literal("a"),
		rdf.Literal("b"),
		rdf.Literal("a b"),
		rdf.Literal("alpha centauri"),
		rdf.Literal("alpha zzzzzzzz"),
		rdf.Literal("Nan"),
		rdf.Literal("Infinity"),
		rdf.Literal("inf"),
		rdf.TypedLiteral("NaN", rdf.XSDDouble),
		rdf.TypedLiteral("seven", rdf.XSDInteger),
	}
	score := rowFillVsPairwise(t, vals, vals)
	at := func(lex string, n int) int { // the n-th value with that lexical form
		for i, v := range vals {
			if v.Value == lex {
				if n == 0 {
					return i
				}
				n--
			}
		}
		t.Fatalf("no value %q", lex)
		return -1
	}
	days := 364.0 // a variable, so that the expectation rounds as the product does
	for i := range vals {
		if got := score(i, i); got != 1 {
			t.Errorf("%v against itself = %v, want 1", vals[i], got)
		}
	}
	for _, c := range []struct {
		i, j int
		want float64
	}{
		{at("", 0), at("", 1), 0},                                      // both empty, not the same term
		{at("Kevin Durant", 0), at("kevin  durant", 0), 1},             // equal normal form
		{at("Kevin Durant", 0), at("http://x.org/Kevin_Durant", 0), 0}, // literal vs IRI
		{at("http://x.org/Kevin_Durant", 0), at("http://y.org/kevin-durant", 0), 1},
		{at("7", 0), at("1984-12-30", 0), 0}, // number vs date
		{at("7", 0), at("7", 1), 1},          // plain vs typed
		{at("7", 1), at("7.5", 0), 0.95},
		{at("1984-12-30", 0), at("1985-12-29", 0), 1 - days/365},
		{at("1984-12-30", 0), at("1985-12-30", 0), 0},
		{at("a", 0), at("b", 0), 0},
		{at("a", 0), at("a b", 0), 0.5},
		{at("alpha centauri", 0), at("alpha zzzzzzzz", 0), 1.0 / 3}, // one token of three; fewer trigrams
		{at("Nan", 0), at("7", 0), 0},
		{at("Nan", 0), at("NaN", 0), 1},
		{at("Infinity", 0), at("inf", 0), 0.3}, // strings: "  i", " in", "inf" of ten trigrams
		{at("seven", 0), at("7", 0), 0},
	} {
		if got := score(c.i, c.j); got != c.want {
			t.Errorf("%v against %v = %v, want %v", vals[c.i], vals[c.j], got, c.want)
		}
		if got, back := score(c.i, c.j), score(c.j, c.i); got != back {
			t.Errorf("%v against %v = %v, but %v the other way", vals[c.i], vals[c.j], got, back)
		}
	}
}

// FuzzRowFillMatchesPairwise: whatever two byte strings spell — as
// literals and as IRI local names, against each other and themselves —
// the index-filled rows give the pairwise oracle's space.
func FuzzRowFillMatchesPairwise(f *testing.F) {
	for _, seed := range [][2]string{
		{"Kevin Durant", "kevin  durant"},
		{"", " "},
		{"Nan", "7"},
		{"Infinity", "inf"},
		{"1984-12-30", "1985-12-29"},
		{"42", "45.5"},
		{"a", "a b"},
		{"alpha centauri", "alpha zzzzzzzz"},
		{"caf\u00e9 \xff", "CAFÉ"},
		{"x/y#z", "z"},
	} {
		f.Add([]byte(seed[0]), []byte(seed[1]))
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		vals := []rdf.Term{
			rdf.Literal(string(a)), rdf.IRI("http://x.org/" + string(a)),
			rdf.Literal(string(b)), rdf.IRI("http://y.org/" + string(b)),
		}
		rowFillVsPairwise(t, vals, vals)
	})
}

// TestThetaSentinel pins the Options.Theta contract: negative means
// "unset" (DefaultTheta applies), zero is an honest θ=0 that keeps
// zero-score features instead of silently becoming 0.3.
func TestThetaSentinel(t *testing.T) {
	prof, _ := synth.ProfileByName("dbpedia-lexvo")
	ds := synth.Generate(prof.Scale(testScale))
	build := func(theta float64) *Space {
		return Build(ds.G1, ds.G2, ds.Entities1, ds.Entities2, Options{Theta: theta, Workers: 2})
	}
	sameSpace(t, "Theta:-1 vs DefaultTheta", build(-1), build(DefaultTheta))
	zero := build(0)
	if zero.Len() <= build(DefaultTheta).Len() {
		t.Fatalf("explicit θ=0 filtered the space like the default did (len %d)", zero.Len())
	}
	// θ=0 keeps every pair where both sides have attributes.
	for l, set := range zero.sets {
		for _, f := range set {
			if f.Score < 0 {
				t.Fatalf("link %v feature %v has negative score %g", l, f.Key, f.Score)
			}
		}
	}
}

// TestCustomSimParallel checks that a user-supplied Sim function is
// deterministic across worker counts.
func TestCustomSimParallel(t *testing.T) {
	prof, _ := synth.ProfileByName("dbpedia-dogfood")
	ds := synth.Generate(prof.Scale(testScale))
	sim := func(a, b rdf.Term) float64 { return similarity.SpaceSim(a, b) }
	serial := Build(ds.G1, ds.G2, ds.Entities1, ds.Entities2,
		Options{Theta: DefaultTheta, Workers: 1, Sim: sim})
	parallel := Build(ds.G1, ds.G2, ds.Entities1, ds.Entities2,
		Options{Theta: DefaultTheta, Workers: 8, Sim: sim})
	if serial.Len() == 0 {
		t.Fatal("space is empty; test proves nothing")
	}
	sameSpace(t, "custom sim workers=8", parallel, serial)
}

// TestMemoisedScoresAreTheSimilarity checks the similarity memo against
// the function it tabulates: every feature set of a built space — read
// off rows that thousands of earlier pairs share — equals the set scored
// for that pair alone, value pair by value pair, and a custom Sim is
// asked for each pair of values at most once per worker.
func TestMemoisedScoresAreTheSimilarity(t *testing.T) {
	prof, _ := synth.ProfileByName("dbpedia-opencyc")
	ds := synth.Generate(prof.Scale(testScale))
	sigs := newSigTable(ds.Dict)
	sp := Build(ds.G1, ds.G2, ds.Entities1, ds.Entities2, Options{Theta: DefaultTheta, Workers: 1})
	if sp.Len() == 0 {
		t.Fatal("space is empty; test proves nothing")
	}
	for _, e1 := range ds.Entities1 {
		for _, e2 := range ds.Entities2 {
			a1, a2 := ds.G1.Entity(e1), ds.G2.Entity(e2)
			// A table of this pair's own: one row per attribute, one
			// column per attribute.
			rows := make([][]float64, len(a1))
			for i := range rows {
				rows[i] = make([]float64, len(a2))
				for j := range rows[i] {
					rows[i][j] = sigs.sim(a1[i].Obj, a2[j].Obj)
				}
			}
			cols := make([]int32, len(a2))
			for j := range cols {
				cols[j] = int32(j)
			}
			want := buildSet(a1, a2, rows, cols, DefaultTheta)
			l := links.Link{E1: e1, E2: e2}
			if got := sp.FeatureSet(l); !reflect.DeepEqual(got, want) {
				t.Fatalf("link %v: memoised set %v, direct set %v", l, got, want)
			}
		}
	}

	asked := map[[2]rdf.Term]int{}
	Build(ds.G1, ds.G2, ds.Entities1, ds.Entities2, Options{Theta: DefaultTheta, Workers: 1,
		Sim: func(a, b rdf.Term) float64 {
			asked[[2]rdf.Term{a, b}]++
			return similarity.SpaceSim(a, b)
		}})
	for pair, n := range asked {
		if n > 1 {
			t.Fatalf("Sim was asked %d times for %v", n, pair)
		}
	}
}
