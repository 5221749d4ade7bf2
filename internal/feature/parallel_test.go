package feature

import (
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

// TestSharedSigTable checks that supplying a precomputed table (as
// core.New does, one table across all partitions) changes nothing.
func TestSharedSigTable(t *testing.T) {
	prof, _ := synth.ProfileByName("opencyc-drugbank")
	ds := synth.Generate(prof.Scale(testScale))
	own := Build(ds.G1, ds.G2, ds.Entities1, ds.Entities2, Options{Theta: DefaultTheta, Workers: 2})
	shared := Build(ds.G1, ds.G2, ds.Entities1, ds.Entities2,
		Options{Theta: DefaultTheta, Workers: 2, Sigs: NewSigTable(ds.Dict)})
	sameSpace(t, "shared table", shared, own)
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
// the function it caches: every feature set of a built space — scored
// through a memo that thousands of earlier pairs have filled — equals
// the set scored for that pair alone from an empty memo, and a custom
// Sim is asked for each pair of values at most once per worker.
func TestMemoisedScoresAreTheSimilarity(t *testing.T) {
	prof, _ := synth.ProfileByName("dbpedia-opencyc")
	ds := synth.Generate(prof.Scale(testScale))
	sigs := NewSigTable(ds.Dict)
	sp := Build(ds.G1, ds.G2, ds.Entities1, ds.Entities2, Options{Theta: DefaultTheta, Workers: 1, Sigs: sigs})
	if sp.Len() == 0 {
		t.Fatal("space is empty; test proves nothing")
	}
	for _, e1 := range ds.Entities1 {
		for _, e2 := range ds.Entities2 {
			a1, a2 := ds.G1.Entity(e1), ds.G2.Entity(e2)
			// An empty memo: one row per attribute, one column per
			// attribute, nothing computed.
			rows := make([][]float64, len(a1))
			for i := range rows {
				rows[i] = make([]float64, len(a2))
				for j := range rows[i] {
					rows[i][j] = -1
				}
			}
			cols := make([]int32, len(a2))
			for j := range cols {
				cols[j] = int32(j)
			}
			want := buildSet(a1, a2, rows, cols, DefaultTheta, sigs.sim)
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
