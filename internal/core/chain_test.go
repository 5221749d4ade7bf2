package core

import (
	"testing"

	"alex/internal/feature"
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
	pk1 := provKey{state: s1, action: a1}
	p.addCandidate(s2, &pk1)
	p.generated[pk1] = append(p.generated[pk1], s2)
	pk2 := provKey{state: s2, action: a2}
	p.addCandidate(s3, &pk2)
	p.generated[pk2] = append(p.generated[pk2], s3)

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
		pk := provKey{state: prev, action: feature.Key{P1: 1, P2: 2}}
		p.addCandidate(next, &pk)
		prev = next
	}
	// Must terminate promptly (the 64-hop bound) without stack issues.
	p.handle(prev, true, &sys.cfg)
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
