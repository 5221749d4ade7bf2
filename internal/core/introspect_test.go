package core

import (
	"math/rand"
	"strings"
	"testing"

	"alex/internal/feedback"
	"alex/internal/synth"
)

func TestFeatureStatsLearnDistinctiveness(t *testing.T) {
	ds := smallWorld(t)
	sys := newTestSystem(t, ds, func(c *Config) { c.MaxEpisodes = 20 })
	oracle := feedback.NewOracle(ds.GroundTruth, 0, rand.New(rand.NewSource(3)))
	sys.Run(oracle, nil)

	stats := sys.FeatureStats()
	if len(stats) == 0 {
		t.Skip("no learned feature statistics in this world")
	}
	// Stats must be sorted by MeanQ descending.
	for i := 1; i < len(stats); i++ {
		if stats[i].MeanQ > stats[i-1].MeanQ {
			t.Fatalf("stats not sorted: %f after %f", stats[i].MeanQ, stats[i-1].MeanQ)
		}
	}
	// The shared-type feature, when present, should never be the top
	// feature: exploring it floods wrong links and earns negative
	// returns.
	typeID, okT := ds.Dict.Lookup(synth.P1Type)
	if okT && stats[0].Key.P1 == typeID && len(stats) > 1 {
		t.Errorf("non-distinctive type feature ranked best: %+v", stats[0])
	}
	out := FormatFeatureStats(ds.Dict, stats)
	if !strings.Contains(out, "meanQ") {
		t.Fatal("format missing header")
	}
}

// TestIntrospectionCounters: EpisodeStats.Blacklisted is the number of
// blacklisted vote records, and a full run on this trap-rich world
// blacklists something and retires a group.
func TestIntrospectionCounters(t *testing.T) {
	ds := smallWorld(t)
	sys := newTestSystem(t, ds, nil)
	oracle := feedback.NewOracle(ds.GroundTruth, 0, rand.New(rand.NewSource(3)))
	res := sys.Run(oracle, nil)
	blacklisted, retired := 0, 0
	for _, p := range sys.parts {
		for _, v := range p.votes {
			if v.blacklisted {
				blacklisted++
			}
		}
		for _, g := range p.groups {
			if g.retired {
				retired++
			}
		}
	}
	if got := res.Stats[len(res.Stats)-1].Blacklisted; got != blacklisted {
		t.Fatalf("EpisodeStats.Blacklisted = %d, the records hold %d", got, blacklisted)
	}
	if blacklisted == 0 {
		t.Error("no links blacklisted after a full run with traps")
	}
	if retired == 0 {
		t.Error("no group retired after a full run with traps")
	}
}
