package core

import (
	"math/rand"
	"testing"

	"alex/internal/feature"
	"alex/internal/feedback"
	"alex/internal/links"
	"alex/internal/rdf"
)

// TestRewardChainPropagation reproduces the paper's §4.4.1 example
// directly: s1's action generates s2, s2's action generates s3;
// feedback on s3 must reward both (s2, a2) and (s1, a1).
func TestRewardChainPropagation(t *testing.T) {
	ds := smallWorld(t)
	sys := newTestSystem(t, ds, nil)
	p := sys.parts[0]

	// The chain is wired over links that are not candidates yet:
	// newTestSystem seeds the PARIS links, and addCandidate on one of
	// those is a no-op that would leave the chain unwired. Links() is in
	// map order, so pick from it sorted.
	var ls []links.Link
	for _, l := range links.NewSet(p.space.Links()...).Slice() {
		if _, seeded := p.cands[l]; !seeded {
			ls = append(ls, l)
		}
	}
	if len(ls) < 3 {
		t.Skip("space too small")
	}
	s1, s2, s3 := ls[0], ls[1], ls[2]
	a1 := feature.Key{P1: 11, P2: 21}
	a2 := feature.Key{P1: 12, P2: 22}

	// Wire the chain by hand: s1 is an initial candidate; (s1, a1)
	// generated s2; (s2, a2) generated s3.
	p.addCandidate(s1, nil)
	g1 := p.group(provKey{state: s1, action: a1})
	p.addCandidate(s2, g1)
	g1.links = append(g1.links, s2)
	g2 := p.group(provKey{state: s2, action: a2})
	p.addCandidate(s3, g2)
	g2.links = append(g2.links, s3)

	// Positive feedback on s3 rewards both chain links.
	p.handle(s3, true, &sys.cfg)
	if got := p.ctrl.Q(s2, a2); got != 1 {
		t.Fatalf("Q(s2,a2) = %f, want 1", got)
	}
	if got := p.ctrl.Q(s1, a1); got != 1 {
		t.Fatalf("Q(s1,a1) = %f, want 1", got)
	}

	// Second feedback on s3 within the same episode: first-visit rule,
	// no further returns.
	p.handle(s3, true, &sys.cfg)
	if got := p.ctrl.Q(s2, a2); got != 1 {
		t.Fatalf("Q(s2,a2) after duplicate visit = %f, want 1", got)
	}

	// Negative feedback on s2 (new feedback state) penalizes (s1, a1):
	// returns average of +1 and -1.
	p.handle(s2, false, &sys.cfg)
	if got := p.ctrl.Q(s1, a1); got != 0 {
		t.Fatalf("Q(s1,a1) after mixed feedback = %f, want 0", got)
	}
}

// TestChainDepthBounded guards against pathological provenance chains.
func TestChainDepthBounded(t *testing.T) {
	ds := smallWorld(t)
	sys := newTestSystem(t, ds, nil)
	p := sys.parts[0]
	ls := p.space.Links()
	if len(ls) < 2 {
		t.Skip("space too small")
	}
	// Build an artificially deep chain of 200 generated states using
	// synthetic link IDs.
	prev := links.Link{E1: 900001, E2: 900002}
	p.addCandidate(prev, nil)
	for i := 0; i < 200; i++ {
		next := links.Link{E1: rdf.ID(910000 + i), E2: rdf.ID(920000 + i)}
		p.addCandidate(next, p.group(provKey{state: prev, action: feature.Key{P1: 1, P2: 2}}))
		prev = next
	}
	// Must terminate promptly (the 64-hop bound) without stack issues.
	p.handle(prev, true, &sys.cfg)
}

// TestRewardWalkCreditsEachPairOnce: under noisy feedback a generation
// chain can loop — A admitted by (B, a), B admitted by (A, b) — when a
// rejected link is re-admitted by a group that descends from it.
// Algorithm 1 line 14 appends a feedback value once to each pair that
// led to the state. A walk that follows the loop to its depth bound
// appends it 32 times to each, and one approval then outweighs every
// earlier rejection: Q(A, b) would read (−1 + 32) / 33 ≈ 0.939.
func TestRewardWalkCreditsEachPairOnce(t *testing.T) {
	ds := smallWorld(t)
	sys := newTestSystem(t, ds, nil)
	p := sys.parts[0]
	A := links.Link{E1: 900001, E2: 900002}
	B := links.Link{E1: 900003, E2: 900004}
	a := feature.Key{P1: 1, P2: 2}
	b := feature.Key{P1: 3, P2: 4}
	p.addCandidate(A, p.group(provKey{state: B, action: a}))
	p.addCandidate(B, p.group(provKey{state: A, action: b}))
	p.ctrl.RecordReturn(A, b, -1)

	p.handle(A, true, &sys.cfg)
	if got := p.ctrl.Q(A, b); got != 0 {
		t.Fatalf("Q(A,b) = %.3f, want 0: one -1 and one +1", got)
	}
	if got := p.ctrl.Q(B, a); got != 1 {
		t.Fatalf("Q(B,a) = %.3f, want 1", got)
	}
}

// TestEpisodeStatsCountExplorationsAndSpared drives one partition by
// hand: a state-action pair has admitted five links, the user approves
// one of them twice and rejects three. The first approval explores once
// (the second is not a first visit); the third rejection rolls the
// group of five back, which keeps the approved link and removes the
// other. Admitted and RolledBack list what the counters count.
func TestEpisodeStatsCountExplorationsAndSpared(t *testing.T) {
	ds := smallWorld(t)
	sys := newTestSystem(t, ds, func(c *Config) { c.Partitions = 1 })
	p := sys.parts[0]
	var group []links.Link
	for _, l := range links.NewSet(p.space.Links()...).Slice() {
		if _, seeded := p.cands[l]; !seeded && len(p.space.FeatureSet(l)) > 0 {
			group = append(group, l)
		}
	}
	if len(group) < 5 {
		t.Skip("space too small")
	}
	group = group[:5]
	g := p.group(provKey{state: links.Link{E1: 900001, E2: 900002}, action: feature.Key{P1: 1, P2: 2}})
	for _, l := range group {
		p.addCandidate(l, g)
		g.links = append(g.links, l)
	}

	sys.BeginEpisode()
	sys.Feedback(group[0], true)
	sys.Feedback(group[0], true)
	for _, l := range group[1:4] {
		sys.Feedback(l, false)
	}
	st := sys.FinishEpisode()
	if st.Explorations != 1 || st.Rollbacks != 1 || st.Spared != 1 {
		t.Fatalf("explorations %d, rollbacks %d, spared %d; want 1, 1, 1", st.Explorations, st.Rollbacks, st.Spared)
	}
	checkHistogramRules(t, st)
	if len(st.RolledBack) != 1 || st.RolledBack[0] != 5 {
		t.Fatalf("RolledBack = %v, want the group's 5 links", st.RolledBack)
	}
	if _, ok := p.cands[group[0]]; !ok {
		t.Fatal("the approved link did not survive the rollback")
	}
	if _, ok := p.cands[group[4]]; ok {
		t.Fatal("the unjudged link survived the rollback")
	}

	sys.BeginEpisode()
	st = sys.FinishEpisode()
	if st.Explorations != 0 || st.Spared != 0 || len(st.Admitted) != 0 || len(st.RolledBack) != 0 {
		t.Fatalf("an empty episode counted %d explorations, %d spared, admissions %v, rollbacks %v",
			st.Explorations, st.Spared, st.Admitted, st.RolledBack)
	}

	// The same rules hold on every episode of a run.
	oracle := feedback.NewOracle(ds.GroundTruth, 0.1, rand.New(rand.NewSource(3)))
	for _, st := range sys.Run(oracle, nil).Stats {
		checkHistogramRules(t, st)
	}
}

// checkHistogramRules: Admitted has one entry per exploration summing
// to Explored, and RolledBack one positive group size per rollback.
func checkHistogramRules(t *testing.T, st EpisodeStats) {
	t.Helper()
	sum := 0
	for _, n := range st.Admitted {
		sum += n
	}
	if len(st.Admitted) != st.Explorations || sum != st.Explored {
		t.Fatalf("episode %d: Admitted %v (sum %d) for %d explorations admitting %d links",
			st.Episode, st.Admitted, sum, st.Explorations, st.Explored)
	}
	if len(st.RolledBack) != st.Rollbacks {
		t.Fatalf("episode %d: RolledBack %v for %d rollbacks", st.Episode, st.RolledBack, st.Rollbacks)
	}
	for _, n := range st.RolledBack {
		if n < 1 {
			t.Fatalf("episode %d: a rollback of an empty group: %v", st.Episode, st.RolledBack)
		}
	}
}

// TestExploreOncePerEpisode: the first-visit rule also gates the
// exploration action, so repeated approvals within one episode do not
// multiply ε-greedy draws.
func TestExploreOncePerEpisode(t *testing.T) {
	ds := smallWorld(t)
	sys := newTestSystem(t, ds, nil)
	var correct links.Link
	found := false
	for _, l := range sys.Candidates().Slice() {
		if ds.GroundTruth.Has(l) && len(sys.parts[sys.partitionOf(l)].space.FeatureSet(l)) > 0 {
			correct, found = l, true
			break
		}
	}
	if !found {
		t.Skip("no explorable correct candidate")
	}
	p := sys.parts[sys.partitionOf(correct)]
	p.handle(correct, true, &sys.cfg)
	afterFirst := len(p.cands)
	for i := 0; i < 20; i++ {
		p.handle(correct, true, &sys.cfg)
	}
	if got := len(p.cands); got != afterFirst {
		t.Fatalf("repeated approvals kept exploring: %d -> %d", afterFirst, got)
	}
	// A new episode re-enables exploration for the state.
	p.ctrl.EndEpisode()
	p.handle(correct, true, &sys.cfg)
}
