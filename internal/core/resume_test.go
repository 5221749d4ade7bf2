package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"testing"

	"alex/internal/feedback"
	"alex/internal/links"
	"alex/internal/synth"
)

// resumeSeeds is how many seeds the exact-resume tests walk. Before the
// random streams' positions were part of a snapshot every one of them
// diverged within two episodes.
const resumeSeeds = 20

// scriptedEpisode is one episode as a server's writer drives it:
// verdicts arrive from outside (here: ground truth over the first 60
// candidates in link order) rather than from the system's own sampler.
// It returns the verdicts given, so that a twin can be fed the same.
func scriptedEpisode(sys *System, truth links.Set) []links.Link {
	script := sys.Candidates().Slice()
	if len(script) > 60 {
		script = script[:60]
	}
	replayEpisode(sys, truth, script)
	return script
}

func replayEpisode(sys *System, truth links.Set, script []links.Link) {
	sys.BeginEpisode()
	for _, l := range script {
		sys.Feedback(l, truth.Has(l))
	}
	sys.FinishEpisode()
}

// saveRestore snapshots sys into a freshly built, identically
// configured system — what a process restart does.
func saveRestore(t *testing.T, sys *System, ds *synth.Dataset, mutate func(*Config)) *System {
	t.Helper()
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored := newTestSystem(t, ds, mutate)
	if err := restored.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	return restored
}

func sameState(t *testing.T, when string, got, want *System) {
	t.Helper()
	if d := got.Candidates().SymmetricDiff(want.Candidates()); d != 0 {
		t.Fatalf("%s: restored system differs from the uninterrupted one by %d links (%d vs %d candidates)",
			when, d, got.CandidateCount(), want.CandidateCount())
	}
	if got.Episode() != want.Episode() {
		t.Fatalf("%s: episode %d, want %d", when, got.Episode(), want.Episode())
	}
	for pi := range want.parts {
		if g, w := got.parts[pi].ctrl.Epsilon(), want.parts[pi].ctrl.Epsilon(); g != w {
			t.Fatalf("%s: partition %d epsilon %g, want %g", when, pi, g, w)
		}
	}
}

var resumeConfigs = []struct {
	name   string
	mutate func(*Config)
}{
	{"fixed-epsilon", func(*Config) {}},
	{"epsilon-decay", func(c *Config) { c.Epsilon = 0.5; c.EpsilonDecay = 0.8; c.EpsilonMin = 0.05 }},
}

// TestResumeIsExact is the contract a checkpoint has to keep for crash
// recovery to mean anything: a system restored from a snapshot and the
// system that wrote it, given the same feedback from then on, stay
// link for link the same. That needs more than the learned tables —
// the position of each partition's random stream (action picks and
// ε-greedy draws) and the annealed ε are state too.
func TestResumeIsExact(t *testing.T) {
	ds := smallWorld(t)
	for _, rc := range resumeConfigs {
		for seed := int64(1); seed <= resumeSeeds; seed++ {
			mutate := func(c *Config) { rc.mutate(c); c.Seed = seed }
			t.Run(fmt.Sprintf("%s/seed=%d", rc.name, seed), func(t *testing.T) {
				sys := newTestSystem(t, ds, mutate)
				for ep := 0; ep < 3; ep++ {
					scriptedEpisode(sys, ds.GroundTruth)
				}
				restored := saveRestore(t, sys, ds, mutate)
				sameState(t, "at restore", restored, sys)
				for ep := 0; ep < 6; ep++ {
					script := scriptedEpisode(sys, ds.GroundTruth)
					replayEpisode(restored, ds.GroundTruth, script)
					sameState(t, fmt.Sprintf("%d episodes after restore", ep+1), restored, sys)
				}
			})
		}
	}
}

// TestResumeIsExactUnderRun is the same contract for the batch driver,
// where the system samples its own feedback: the sampler's stream
// position and each partition's sampling order (append-only, with
// removed links still holding their slots) have to survive too.
func TestResumeIsExactUnderRun(t *testing.T) {
	ds := smallWorld(t)
	for _, rc := range resumeConfigs {
		for seed := int64(1); seed <= resumeSeeds; seed++ {
			mutate := func(c *Config) { rc.mutate(c); c.Seed = seed }
			t.Run(fmt.Sprintf("%s/seed=%d", rc.name, seed), func(t *testing.T) {
				sys := newTestSystem(t, ds, mutate)
				oracle := feedback.NewOracle(ds.GroundTruth, 0.1, rand.New(rand.NewSource(3)))
				for ep := 0; ep < 3; ep++ {
					sys.RunEpisode(oracle)
				}
				restored := saveRestore(t, sys, ds, mutate)
				// Two oracles on one seed: both systems are told the
				// same (10 % wrong) verdicts as long as they ask about
				// the same links in the same order.
				o1 := feedback.NewOracle(ds.GroundTruth, 0.1, rand.New(rand.NewSource(9)))
				o2 := feedback.NewOracle(ds.GroundTruth, 0.1, rand.New(rand.NewSource(9)))
				for ep := 0; ep < 6; ep++ {
					sys.RunEpisode(o1)
					restored.RunEpisode(o2)
					sameState(t, fmt.Sprintf("%d episodes after restore", ep+1), restored, sys)
				}
			})
		}
	}
}

// TestRestoreSnapshotWithoutPositions: a snapshot written before the
// stream positions, Order and Epsilon existed carries none of them (gob
// omits what it does not know, and zero values alike). It must still
// load, as it always did: streams at their seed, candidates sampled in
// link order, ε as configured.
func TestRestoreSnapshotWithoutPositions(t *testing.T) {
	ds := smallWorld(t)
	mutate := func(c *Config) { c.EpsilonDecay = 0.8 }
	sys := newTestSystem(t, ds, mutate)
	oracle := feedback.NewOracle(ds.GroundTruth, 0, rand.New(rand.NewSource(3)))
	for ep := 0; ep < 4; ep++ {
		sys.RunEpisode(oracle)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var wire systemWire
	if err := gob.NewDecoder(&buf).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	wire.SamplerPos = 0
	for i := range wire.Parts {
		wire.Parts[i].Order, wire.Parts[i].Epsilon, wire.Parts[i].RandPos = nil, 0, 0
	}
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(&wire); err != nil {
		t.Fatal(err)
	}

	restored := newTestSystem(t, ds, mutate)
	if err := restored.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if d := restored.Candidates().SymmetricDiff(sys.Candidates()); d != 0 || restored.Episode() != sys.Episode() {
		t.Fatalf("restored %d candidates after %d episodes, differing by %d; want %d after %d",
			restored.CandidateCount(), restored.Episode(), d, sys.CandidateCount(), sys.Episode())
	}
	for pi, p := range restored.parts {
		if p.rng.pos() != 0 || p.dead != 0 || len(p.order) != len(p.cands) || p.ctrl.Epsilon() != restored.cfg.Epsilon {
			t.Fatalf("partition %d: stream at %d, %d stale of %d sampling slots for %d candidates, ε %g",
				pi, p.rng.pos(), p.dead, len(p.order), len(p.cands), p.ctrl.Epsilon())
		}
	}
	restored.RunEpisode(oracle) // and it keeps going
}
