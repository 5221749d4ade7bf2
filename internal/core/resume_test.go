package core

import (
	"bytes"
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
}

var resumeConfigs = []struct {
	name   string
	mutate func(*Config)
}{
	{"fixed-epsilon", func(*Config) {}},
	{"high-epsilon", func(c *Config) { c.Epsilon = 0.5 }},
}

// TestResumeIsExact is the contract a checkpoint has to keep for crash
// recovery to mean anything: a system restored from a snapshot and the
// system that wrote it, given the same feedback from then on, stay
// link for link the same. That needs more than the learned tables —
// the position of each partition's random stream (action picks and
// ε-greedy draws) is state too.
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
