package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"alex/internal/links"
)

// TestChangedFracMatchesRebuild holds the change record every partition
// keeps to the full rebuilds it replaced, on random feedback streams:
// each episode's ChangedFrac must equal |prev Δ now| / max(|prev|, 1)
// over Candidates() taken at BeginEpisode and at FinishEpisode (prev is
// empty when no BeginEpisode came since New or Restore), and every
// Changes, merged into the slice the previous ones built, must give
// Candidates() in order. The streams flip verdicts at random, so
// approvals of wrong links flood the set and rejections roll groups
// back; they reject links admitted earlier in the same episode, drain
// mid-episode as a flush publication does, restore between episodes
// and skip BeginEpisode after a restore.
func TestChangedFracMatchesRebuild(t *testing.T) {
	ds := smallWorld(t)
	var addedThenRemoved, restores, unbegun int
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			mutate := func(c *Config) { c.Seed = seed }
			sys := newTestSystem(t, ds, mutate)
			var kept []links.Link // what a publisher holds after each drain
			drain := func(when string) {
				t.Helper()
				added, removed := sys.Changes()
				kept = links.Merge(kept, added, removed)
				if want := sys.Candidates().Slice(); !slices.Equal(kept, want) {
					t.Fatalf("%s: the drained changes build %d links, the candidate set holds %d", when, len(kept), len(want))
				}
			}
			begun := false // BeginEpisode called since New or Restore
			for ep := 0; ep < 12; ep++ {
				if ep > 0 && rng.Intn(4) == 0 {
					sys = saveRestore(t, sys, ds, mutate)
					kept, begun = nil, false
					restores++
				}
				prev := links.NewSet()
				if begun || rng.Intn(3) > 0 {
					sys.BeginEpisode()
					prev, begun = sys.Candidates(), true
				} else {
					unbegun++
				}
				admitted := links.NewSet() // links this episode added so far
				for i := 0; i < 40; i++ {
					before := sys.Candidates()
					var l links.Link
					if fresh := admitted.Slice(); len(fresh) > 0 && rng.Intn(3) == 0 {
						l = fresh[rng.Intn(len(fresh))]
					} else if cs := before.Slice(); len(cs) > 0 {
						l = cs[rng.Intn(len(cs))]
					} else {
						break
					}
					verdict := ds.GroundTruth.Has(l) != (rng.Intn(4) == 0)
					sys.Feedback(l, verdict)
					after := sys.Candidates()
					for a := range after {
						if !before.Has(a) {
							admitted.Add(a)
						}
					}
					for b := range before {
						if !after.Has(b) && admitted.Has(b) {
							addedThenRemoved++
						}
					}
					if rng.Intn(10) == 0 {
						drain(fmt.Sprintf("episode %d, mid-episode drain after item %d", ep+1, i))
					}
				}
				st := sys.FinishEpisode()
				now := sys.Candidates()
				want := float64(prev.SymmetricDiff(now)) / float64(max(prev.Len(), 1))
				if st.ChangedFrac != want {
					t.Fatalf("episode %d: ChangedFrac = %v, want |prev Δ now| / max(|prev|, 1) = %d / %d = %v",
						ep+1, st.ChangedFrac, prev.SymmetricDiff(now), max(prev.Len(), 1), want)
				}
				drain(fmt.Sprintf("episode %d, boundary drain", ep+1))
			}
		})
	}
	t.Logf("%d links added and removed in one episode, %d restores, %d episodes without BeginEpisode", addedThenRemoved, restores, unbegun)
	if addedThenRemoved == 0 || restores == 0 || unbegun == 0 {
		t.Fatalf("the streams removed %d links they had added in the same episode, restored %d times and skipped BeginEpisode %d times; each must happen",
			addedThenRemoved, restores, unbegun)
	}
}
