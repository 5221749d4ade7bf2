package core

import (
	"fmt"
	"testing"

	"alex/internal/feature"
	"alex/internal/links"
)

// TestPartitionsExploreIndependently states §6.2 as an exact property.
// The paper partitions dataset 1 so that the parts "can be
// independently explored in parallel, either on different CPU cores of
// the same machine or on multiple machines"; that is only true if a
// partition's trajectory depends on nothing outside it. So: partition
// pi of a P-partition system, and a stand-alone one-partition system
// built over that partition's entities and initial links alone (seeded
// so that its one stream is partition pi's), are given the same
// verdicts and finished at the same moments — and must hold the same
// candidates after every episode. A fleet shard is such a stand-alone
// system over its hash range, which is why shards need no coordinator
// to run the loop.
func TestPartitionsExploreIndependently(t *testing.T) {
	const P, episodes, perEpisode = 3, 8, 90
	ds := smallWorld(t)
	initial := initialLinks(ds)
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			whole := newTestSystem(t, ds, func(c *Config) { c.Partitions = P; c.Seed = seed })
			if whole.Partitions() != P {
				t.Fatalf("%d partitions, want %d", whole.Partitions(), P)
			}
			ents := feature.PartitionRoundRobin(ds.Entities1, P)
			alone := make([]*System, P)
			for pi := range alone {
				var own []links.Link
				for _, l := range initial {
					if whole.partitionOf(l) == pi {
						own = append(own, l)
					}
				}
				cfg := whole.cfg
				cfg.Partitions, cfg.Seed = 1, seed+int64(pi)
				alone[pi] = New(ds.G1, ds.G2, ents[pi], ds.Entities2, own, cfg)
			}

			explored := 0
			for ep := 1; ep <= episodes; ep++ {
				script := whole.Candidates().Slice()
				if len(script) > perEpisode {
					script = script[:perEpisode]
				}
				whole.BeginEpisode()
				for _, a := range alone {
					a.BeginEpisode()
				}
				for _, l := range script {
					ok := ds.GroundTruth.Has(l)
					whole.Feedback(l, ok)
					alone[whole.partitionOf(l)].Feedback(l, ok)
				}
				explored += whole.FinishEpisode().Explored
				for pi, a := range alone {
					a.FinishEpisode()
					if d := a.Candidates().SymmetricDiff(whole.PartitionCandidates(pi)); d != 0 {
						t.Fatalf("episode %d: partition %d differs from its stand-alone twin by %d links", ep, pi, d)
					}
				}
			}
			if explored == 0 {
				t.Fatal("nothing was explored; the test proves nothing")
			}
		})
	}
}
