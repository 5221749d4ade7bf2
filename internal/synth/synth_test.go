package synth

import (
	"math/rand"
	"slices"
	"testing"

	"alex/internal/eval"
	"alex/internal/links"
	"alex/internal/paris"
	"alex/internal/rdf"
)

// TestGenerateDeterministic: two generations of one profile are the
// same dataset — every triple of both graphs, both entity lists and the
// ground truth — so a draw from a process-global random stream
// anywhere in Generate fails it.
func TestGenerateDeterministic(t *testing.T) {
	p, _ := ProfileByName("opencyc-lexvo")
	a := Generate(p)
	b := Generate(p)
	for _, g := range []struct {
		name string
		a, b *rdf.Graph
	}{{"G1", a.G1, b.G1}, {"G2", a.G2, b.G2}} {
		if g.a.Size() != g.b.Size() {
			t.Fatalf("%s sizes differ: %d vs %d", g.name, g.a.Size(), g.b.Size())
		}
		for _, tri := range g.a.Triples() {
			if !g.b.Has(tri) {
				t.Fatalf("%s triple %v missing from second generation", g.name, tri)
			}
		}
	}
	if !slices.Equal(a.Entities1, b.Entities1) || !slices.Equal(a.Entities2, b.Entities2) {
		t.Fatal("entity lists differ between identical seeds")
	}
	if a.GroundTruth.SymmetricDiff(b.GroundTruth) != 0 {
		t.Fatal("ground truth differs between identical seeds")
	}
}

func TestGenerateCounts(t *testing.T) {
	p, _ := ProfileByName("dbpedia-dogfood")
	ds := Generate(p)
	if got := len(ds.Entities1); got != p.N1 {
		t.Errorf("Entities1 = %d, want %d", got, p.N1)
	}
	if got := len(ds.Entities2); got < p.N2 {
		t.Errorf("Entities2 = %d, want ≥ %d", got, p.N2)
	}
	if got := ds.GroundTruth.Len(); got != p.Matched {
		t.Errorf("GroundTruth = %d, want %d", got, p.Matched)
	}
	// Every GT endpoint must exist in its graph.
	for _, l := range ds.GroundTruth.Slice() {
		if len(ds.G1.Entity(l.E1)) == 0 {
			t.Fatalf("GT E1 %d has no attributes", l.E1)
		}
		if len(ds.G2.Entity(l.E2)) == 0 {
			t.Fatalf("GT E2 %d has no attributes", l.E2)
		}
	}
}

func TestProfilesAllGenerate(t *testing.T) {
	for _, p := range Profiles() {
		if p.Name == "dbpedia-opencyc" && testing.Short() {
			continue
		}
		small := p.Scale(0.2)
		ds := Generate(small)
		if ds.GroundTruth.Len() == 0 {
			t.Errorf("%s: empty ground truth", p.Name)
		}
		if ds.G1.Size() == 0 || ds.G2.Size() == 0 {
			t.Errorf("%s: empty graph", p.Name)
		}
	}
}

func TestProfileByName(t *testing.T) {
	if _, ok := ProfileByName("dbpedia-nytimes"); !ok {
		t.Fatal("dbpedia-nytimes missing")
	}
	if _, ok := ProfileByName("nope"); ok {
		t.Fatal("unknown profile found")
	}
}

func TestScale(t *testing.T) {
	p, _ := ProfileByName("dbpedia-nytimes")
	s := p.Scale(0.1)
	if s.N1 != p.N1/10 || s.Matched != p.Matched/10 {
		t.Fatalf("scaled = %+v", s)
	}
	tiny := p.Scale(0.0001)
	if tiny.N1 < 1 || tiny.Matched < 1 {
		t.Fatal("scale floor violated")
	}
}

func TestPerturbNameChanges(t *testing.T) {
	p, _ := ProfileByName("opencyc-lexvo")
	g := &generator{p: p, rng: rand.New(rand.NewSource(7))}
	for i := 0; i < 100; i++ {
		name := "Branto Kestirol"
		got := g.perturbName(name, 1+i%3)
		if got == name {
			t.Fatalf("perturbName returned the input unchanged")
		}
	}
}

// The regime tests verify the PARIS baseline lands where the paper's
// figures start. These are the load-bearing properties of the generator.

func parisRegime(t *testing.T, name string) eval.Metrics {
	t.Helper()
	p, ok := ProfileByName(name)
	if !ok {
		t.Fatalf("missing profile %s", name)
	}
	ds := Generate(p)
	scored := paris.Link(ds.G1, ds.G2, ds.Entities1, ds.Entities2, paris.NewOptions())
	cands := links.NewSet()
	for _, s := range scored {
		cands.Add(s.Link)
	}
	m := eval.Compute(cands, ds.GroundTruth)
	t.Logf("%s: PARIS %v", name, m)
	return m
}

func TestRegimeLowRecall(t *testing.T) {
	m := parisRegime(t, "dbpedia-nytimes")
	if m.Recall > 0.45 {
		t.Errorf("recall = %.2f, want low (≤ 0.45)", m.Recall)
	}
	if m.Precision < 0.7 {
		t.Errorf("precision = %.2f, want high (≥ 0.7)", m.Precision)
	}
}

func TestRegimeLowPrecision(t *testing.T) {
	m := parisRegime(t, "dbpedia-drugbank")
	if m.Precision > 0.45 {
		t.Errorf("precision = %.2f, want low (≤ 0.45)", m.Precision)
	}
	if m.Recall < 0.85 {
		t.Errorf("recall = %.2f, want high (≥ 0.85)", m.Recall)
	}
}

func TestRegimeBothLow(t *testing.T) {
	m := parisRegime(t, "dbpedia-lexvo")
	if m.Precision > 0.75 || m.Recall > 0.6 {
		t.Errorf("precision = %.2f recall = %.2f, want both lowish", m.Precision, m.Recall)
	}
}
