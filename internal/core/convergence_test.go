package core

import (
	"math/rand"
	"testing"

	"alex/internal/feedback"
	"alex/internal/links"
	"alex/internal/rdf"
)

// staticWorld builds a system whose candidate set cannot change: the
// initial links reference entities with no feature sets, so approval
// explores nothing and the oracle always approves.
func staticWorld(t *testing.T) (*System, *feedback.Oracle) {
	t.Helper()
	d := rdf.NewDict()
	g1 := rdf.NewGraphWithDict(d)
	g2 := rdf.NewGraphWithDict(d)
	// Entities whose only values are dissimilar, so the θ-filtered
	// space is empty and no exploration is possible.
	g1.Insert(rdf.Triple{S: rdf.IRI("http://a/x"), P: rdf.IRI("http://a/p"), O: rdf.Literal("aaaaaaaa")})
	g2.Insert(rdf.Triple{S: rdf.IRI("http://b/y"), P: rdf.IRI("http://b/q"), O: rdf.Literal("zzzzzzzz")})
	cfg := DefaultConfig()
	cfg.EpisodeSize = 5
	cfg.MaxEpisodes = 50
	e1 := g1.SubjectIDs()
	e2 := g2.SubjectIDs()
	x, _ := d.Lookup(rdf.IRI("http://a/x"))
	y, _ := d.Lookup(rdf.IRI("http://b/y"))
	l := links.Link{E1: x, E2: y}
	sys := New(g1, g2, e1, e2, []links.Link{l}, cfg)
	oracle := feedback.NewOracle(links.NewSet(l), 0, rand.New(rand.NewSource(1)))
	return sys, oracle
}

// TestStrictConvergenceNeedsConsecutiveUnchanged: one unchanged
// episode is not convergence, two in a row are, and a changed episode
// starts the count again.
func TestStrictConvergenceNeedsConsecutiveUnchanged(t *testing.T) {
	sys, oracle := staticWorld(t)
	res := sys.Run(oracle, nil)
	if !res.Converged || !sys.Converged() {
		t.Fatal("static world did not converge")
	}
	if res.Episodes != convergenceEpisodes || convergenceEpisodes != 2 {
		t.Fatalf("episodes = %d, want exactly 2", res.Episodes)
	}

	sys, oracle = staticWorld(t)
	sys.RunEpisode(oracle)
	if sys.Converged() {
		t.Fatal("converged after one unchanged episode")
	}
	extra := links.Link{E1: 424242, E2: 434343}
	sys.BeginEpisode()
	sys.parts[0].addCandidate(extra, nil)
	sys.FinishEpisode()
	sys.BeginEpisode()
	sys.parts[0].removeCandidate(extra)
	sys.FinishEpisode()
	sys.RunEpisode(oracle)
	if sys.Converged() {
		t.Fatal("a changed episode did not reset the count")
	}
	sys.RunEpisode(oracle)
	if !sys.Converged() {
		t.Fatal("two unchanged episodes after a change did not converge")
	}
}

func TestRelaxedConvergenceRecorded(t *testing.T) {
	sys, oracle := staticWorld(t)
	res := sys.Run(oracle, nil)
	if res.RelaxedEpisode != 1 {
		t.Fatalf("relaxed episode = %d, want 1 (first unchanged episode)", res.RelaxedEpisode)
	}
}

func TestChangedFracComputation(t *testing.T) {
	sys, oracle := staticWorld(t)
	st := sys.RunEpisode(oracle)
	if st.ChangedFrac != 0 {
		t.Fatalf("ChangedFrac = %f, want 0 in a static world", st.ChangedFrac)
	}
	// Mutate the candidate set by hand between episodes: fraction is
	// |Δ| / |prev|.
	sys.BeginEpisode()
	sys.parts[0].addCandidate(links.Link{E1: 424242, E2: 434343}, nil)
	st2 := sys.FinishEpisode()
	if st2.ChangedFrac != 1.0 { // 1 new link / 1 previous link
		t.Fatalf("ChangedFrac = %f, want 1.0", st2.ChangedFrac)
	}
}
