package core

import (
	"math/rand"
	"testing"

	"alex/internal/eval"
	"alex/internal/feature"
	"alex/internal/feedback"
	"alex/internal/links"
	"alex/internal/paris"
	"alex/internal/synth"
)

// smallWorld builds a deterministic miniature dataset pair: 20 matched
// people, 8 of them with exact copies (PARIS finds those), 12 with
// perturbed variants, plus a shared non-distinctive type on all
// entities (the feature a bad action floods the candidate set with).
func smallWorld(t *testing.T) *synth.Dataset {
	t.Helper()
	p := synth.Profile{
		Name: "test-world", N1: 40, N2: 35, Matched: 20,
		ExactFrac: 0.4, Traps: 4, AmbiguousFrac: 0.4, SharedTypeFrac: 0.5,
		EpisodeSize: 50, Partitions: 2, Seed: 7,
	}
	return synth.Generate(p)
}

func initialLinks(ds *synth.Dataset) []links.Link {
	scored := paris.Link(ds.G1, ds.G2, ds.Entities1, ds.Entities2, paris.NewOptions())
	out := make([]links.Link, len(scored))
	for i, s := range scored {
		out[i] = s.Link
	}
	return out
}

func newTestSystem(t *testing.T, ds *synth.Dataset, mutate func(*Config)) *System {
	t.Helper()
	cfg := DefaultConfig()
	cfg.EpisodeSize = 50
	cfg.Partitions = 2
	cfg.MaxEpisodes = 30
	if mutate != nil {
		mutate(&cfg)
	}
	return New(ds.G1, ds.G2, ds.Entities1, ds.Entities2, initialLinks(ds), cfg)
}

func TestNewSystemSeedsCandidates(t *testing.T) {
	ds := smallWorld(t)
	init := initialLinks(ds)
	sys := newTestSystem(t, ds, nil)
	if sys.CandidateCount() != len(init) {
		t.Fatalf("candidates = %d, want %d", sys.CandidateCount(), len(init))
	}
	cands := sys.Candidates()
	for _, l := range init {
		if !cands.Has(l) {
			t.Fatalf("initial link %+v missing", l)
		}
	}
	if sys.Partitions() != 2 {
		t.Fatalf("partitions = %d", sys.Partitions())
	}
}

func TestSpaceIsFiltered(t *testing.T) {
	ds := smallWorld(t)
	sys := newTestSystem(t, ds, nil)
	filtered, total := sys.SpaceSize()
	if filtered == 0 || total == 0 {
		t.Fatal("empty space")
	}
	if filtered >= total {
		t.Fatalf("filtering removed nothing: %d/%d", filtered, total)
	}
}

func TestPositiveFeedbackExplores(t *testing.T) {
	ds := smallWorld(t)
	sys := newTestSystem(t, ds, nil)
	before := sys.CandidateCount()
	// Feed positive feedback on every correct initial candidate a few
	// times; exploration must admit at least one new link.
	for round := 0; round < 3; round++ {
		for _, l := range sys.Candidates().Slice() {
			if ds.GroundTruth.Has(l) {
				sys.Feedback(l, true)
			}
		}
	}
	if sys.CandidateCount() <= before {
		t.Fatalf("no exploration happened: %d -> %d", before, sys.CandidateCount())
	}
}

func TestNegativeFeedbackRemovesAndBlacklists(t *testing.T) {
	ds := smallWorld(t)
	sys := newTestSystem(t, ds, nil)
	var wrong links.Link
	found := false
	for _, l := range sys.Candidates().Slice() {
		if !ds.GroundTruth.Has(l) {
			wrong, found = l, true
			break
		}
	}
	if !found {
		t.Skip("no wrong initial candidate in this world")
	}
	sys.Feedback(wrong, false)
	if sys.Candidates().Has(wrong) {
		t.Fatal("rejected link still a candidate")
	}
	p := sys.parts[sys.partitionOf(wrong)]
	// Default BlacklistMargin is 2: the first rejection removes, the
	// second (after a hypothetical re-exploration) blacklists.
	if v := p.votes[wrong]; v.neg != 1 || v.blacklisted {
		t.Fatalf("after one rejection the link's record is %+v, want 1 rejection and not blacklisted", v)
	}
	p.addCandidate(wrong, nil)
	sys.Feedback(wrong, false)
	if v := p.votes[wrong]; v.neg != 2 || !v.blacklisted {
		t.Fatalf("after two rejections the link's record is %+v, want 2 rejections and blacklisted", v)
	}
}

func TestBlacklistMarginOneIsImmediate(t *testing.T) {
	ds := smallWorld(t)
	sys := newTestSystem(t, ds, func(c *Config) { c.BlacklistMargin = 1 })
	var wrong links.Link
	found := false
	for _, l := range sys.Candidates().Slice() {
		if !ds.GroundTruth.Has(l) {
			wrong, found = l, true
			break
		}
	}
	if !found {
		t.Skip("no wrong initial candidate in this world")
	}
	sys.Feedback(wrong, false)
	if !sys.parts[sys.partitionOf(wrong)].votes[wrong].blacklisted {
		t.Fatal("margin 1 did not blacklist on first rejection")
	}
}

func TestFeedbackOnNonCandidateIsNoop(t *testing.T) {
	ds := smallWorld(t)
	sys := newTestSystem(t, ds, nil)
	before := sys.CandidateCount()
	sys.Feedback(links.Link{E1: 999999, E2: 999998}, true)
	sys.Feedback(links.Link{E1: 999999, E2: 999998}, false)
	if sys.CandidateCount() != before {
		t.Fatal("feedback on unknown link changed state")
	}
}

func TestRunEpisodeImprovesQuality(t *testing.T) {
	ds := smallWorld(t)
	sys := newTestSystem(t, ds, nil)
	oracle := feedback.NewOracle(ds.GroundTruth, 0, rand.New(rand.NewSource(3)))

	start := eval.Compute(sys.Candidates(), ds.GroundTruth)
	res := sys.Run(oracle, nil)
	end := eval.Compute(sys.Candidates(), ds.GroundTruth)

	if end.F1 <= start.F1 {
		t.Fatalf("F-measure did not improve: %.3f -> %.3f over %d episodes", start.F1, end.F1, res.Episodes)
	}
	if end.Recall < start.Recall {
		t.Fatalf("recall regressed: %.3f -> %.3f", start.Recall, end.Recall)
	}
	if res.Episodes == 0 || len(res.Stats) != res.Episodes {
		t.Fatalf("result bookkeeping wrong: %+v", res)
	}
}

func TestRunIsDeterministic(t *testing.T) {
	ds := smallWorld(t)
	run := func() links.Set {
		sys := newTestSystem(t, ds, nil)
		oracle := feedback.NewOracle(ds.GroundTruth, 0, rand.New(rand.NewSource(3)))
		sys.Run(oracle, nil)
		return sys.Candidates()
	}
	a, b := run(), run()
	if a.SymmetricDiff(b) != 0 {
		t.Fatalf("two identical runs diverged by %d links", a.SymmetricDiff(b))
	}
}

func TestRollbackRemovesGeneratedLinks(t *testing.T) {
	ds := smallWorld(t)
	sys := newTestSystem(t, ds, func(c *Config) {
		c.RollbackThreshold = 2
	})
	// Find a correct candidate whose feature set includes the shared
	// non-distinctive type feature, then force that exploration.
	p := sys.parts[0]
	var state links.Link
	var typeKey feature.Key
	foundState := false
	for l := range p.cands {
		if !ds.GroundTruth.Has(l) {
			continue
		}
		for _, f := range p.space.FeatureSet(l) {
			t1 := ds.Dict.Term(f.Key.P1)
			if t1 == synth.P1Type && f.Score == 1 {
				state, typeKey, foundState = l, f.Key, true
				break
			}
		}
		if foundState {
			break
		}
	}
	if !foundState {
		t.Skip("no candidate with the shared-type feature in partition 0")
	}

	before := len(p.cands)
	g := p.group(provKey{state: state, action: typeKey})
	// Emulate the bad action directly via explore internals.
	score := p.space.FeatureSet(state).Score(typeKey)
	for _, nl := range p.space.FindInRange(typeKey, score-0.05, score+0.05) {
		if p.addCandidate(nl, g) {
			g.links = append(g.links, nl)
		}
	}
	flooded := len(p.cands)
	if flooded <= before {
		t.Skip("type exploration added nothing in this world")
	}

	// Enough negative feedback on generated links triggers rollback:
	// the trigger scales with group size (|group|/16) so a big flood
	// needs proportionally more rejections than the base threshold.
	need := sys.cfg.RollbackThreshold
	if scaled := len(g.links) / 16; scaled > need {
		need = scaled
	}
	neg := 0
	for _, l := range append([]links.Link(nil), g.links...) {
		if !ds.GroundTruth.Has(l) {
			p.handle(l, false, &sys.cfg)
			neg++
			if neg == need {
				break
			}
		}
	}
	if neg < need {
		t.Skip("not enough wrong generated links")
	}
	after := len(p.cands)
	if after > before {
		t.Fatalf("rollback did not clean the flood: %d -> %d -> %d", before, flooded, after)
	}
	if p.rollbacks == 0 {
		t.Fatal("rollback counter not incremented")
	}
	if !g.retired || g.links != nil || int(g.neg) != need {
		t.Fatalf("rolled-back group: retired %v, %d links kept, %d rejections; want retired, none, %d", g.retired, len(g.links), g.neg, need)
	}
}

func TestRollbackSparesApprovedLinks(t *testing.T) {
	ds := smallWorld(t)
	sys := newTestSystem(t, ds, func(c *Config) { c.RollbackThreshold = 1 })
	p := sys.parts[0]
	// Construct a synthetic generation group by hand.
	var group []links.Link
	ls := p.space.Links()
	if len(ls) < 5 {
		t.Skip("space too small")
	}
	g := p.group(provKey{state: ls[0], action: feature.Key{P1: 1, P2: 2}})
	// Links comes in map order: take the first four that are not
	// candidates already, whichever they are.
	for _, l := range ls[1:] {
		if len(group) < 4 && p.addCandidate(l, g) {
			g.links = append(g.links, l)
			group = append(group, l)
		}
	}
	if len(group) < 4 {
		t.Skip("could not build group")
	}
	p.handle(group[0], true, &sys.cfg) // approve first
	// Two rejections: the group's neg (2) reaches the threshold and
	// exceeds its pos (1), so rollback fires.
	p.handle(group[1], false, &sys.cfg)
	p.handle(group[2], false, &sys.cfg)
	if _, ok := p.cands[group[0]]; !ok {
		t.Fatal("rollback removed an approved link")
	}
	if _, ok := p.cands[group[3]]; ok {
		t.Fatal("rollback left an unapproved generated link")
	}
	// rolled-back links must not be blacklisted
	if p.votes[group[3]].blacklisted {
		t.Fatal("rolled-back link was blacklisted")
	}
	if !g.retired || g.pos != 1 || g.neg != 2 {
		t.Fatalf("group record %+v, want retired with 1 approval and 2 rejections", *g)
	}
}

func TestBlacklistPreventsReexploration(t *testing.T) {
	ds := smallWorld(t)
	sys := newTestSystem(t, ds, nil)
	oracle := feedback.NewOracle(ds.GroundTruth, 0, rand.New(rand.NewSource(5)))
	sys.Run(oracle, nil)
	// After convergence every blacklisted link must be absent.
	for _, p := range sys.parts {
		for l, v := range p.votes {
			if _, ok := p.cands[l]; ok && v.blacklisted {
				t.Fatalf("blacklisted link %+v is a candidate", l)
			}
		}
	}
}

func TestUniformPolicyAblationRuns(t *testing.T) {
	ds := smallWorld(t)
	sys := newTestSystem(t, ds, func(c *Config) { c.UniformPolicy = true; c.MaxEpisodes = 5 })
	oracle := feedback.NewOracle(ds.GroundTruth, 0, rand.New(rand.NewSource(5)))
	res := sys.Run(oracle, nil)
	if res.Episodes == 0 {
		t.Fatal("no episodes ran")
	}
}

func TestEpisodeStatsAccounting(t *testing.T) {
	ds := smallWorld(t)
	sys := newTestSystem(t, ds, nil)
	oracle := feedback.NewOracle(ds.GroundTruth, 0, rand.New(rand.NewSource(9)))
	st := sys.RunEpisode(oracle)
	if st.Feedback == 0 || st.Feedback > 50 {
		t.Fatalf("feedback count = %d", st.Feedback)
	}
	if st.Negative > st.Feedback {
		t.Fatal("negative > feedback")
	}
	if pct := st.NegativePct(); pct < 0 || pct > 100 {
		t.Fatalf("NegativePct = %f", pct)
	}
	if st.Episode != 1 || sys.Episode() != 1 {
		t.Fatalf("episode numbering wrong: %d/%d", st.Episode, sys.Episode())
	}
}

func TestEmptyCandidatesEpisode(t *testing.T) {
	ds := smallWorld(t)
	cfg := DefaultConfig()
	cfg.EpisodeSize = 10
	sys := New(ds.G1, ds.G2, ds.Entities1, ds.Entities2, nil, cfg)
	oracle := feedback.NewOracle(ds.GroundTruth, 0, rand.New(rand.NewSource(9)))
	st := sys.RunEpisode(oracle)
	if st.Feedback != 0 {
		t.Fatalf("feedback on empty candidate set: %d", st.Feedback)
	}
}

func TestPartitionCandidatesViews(t *testing.T) {
	ds := smallWorld(t)
	sys := newTestSystem(t, ds, nil)
	total := 0
	for pi := 0; pi < sys.Partitions(); pi++ {
		total += sys.PartitionCandidates(pi).Len()
	}
	if total != sys.CandidateCount() {
		t.Fatalf("partition views sum to %d, want %d", total, sys.CandidateCount())
	}
}

func TestConfigValidationDefaults(t *testing.T) {
	ds := smallWorld(t)
	cfg := Config{Seed: 1} // everything zero
	sys := New(ds.G1, ds.G2, ds.Entities1, ds.Entities2, nil, cfg)
	if sys.Partitions() != 1 {
		t.Fatalf("partitions defaulted to %d", sys.Partitions())
	}
}

func TestStringer(t *testing.T) {
	ds := smallWorld(t)
	sys := newTestSystem(t, ds, nil)
	if s := sys.String(); s == "" {
		t.Fatal("empty String()")
	}
}

// TestZeroTurnsBlacklistAndRollbackOff pins what 0 means for the two
// §6.3 knobs: a BlacklistMargin of 0 blacklists nothing and a
// RollbackThreshold of 0 rolls nothing back, so a zero Config has both
// off. One group of eight admitted links takes three rejections, two
// of them on the same link.
func TestZeroTurnsBlacklistAndRollbackOff(t *testing.T) {
	ds := smallWorld(t)
	for _, tc := range []struct {
		name                        string
		mutate                      func(*Config)
		wantBlacklist, wantRollback bool
	}{
		{"defaults", func(*Config) {}, true, true},
		{"margin 0", func(c *Config) { c.BlacklistMargin = 0 }, false, true},
		{"threshold 0", func(c *Config) { c.RollbackThreshold = 0 }, true, false},
		{"zero Config", func(c *Config) { *c = Config{Seed: c.Seed, Partitions: 1} }, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := newTestSystem(t, ds, func(c *Config) {
				c.Partitions = 1
				tc.mutate(c)
			})
			p := sys.parts[0]
			g := p.group(provKey{state: links.Link{E1: 900001, E2: 900002}, action: feature.Key{P1: 1, P2: 2}})
			for _, l := range links.NewSet(p.space.Links()...).Slice() {
				if len(g.links) < 8 && p.addCandidate(l, g) {
					g.links = append(g.links, l)
				}
			}
			if len(g.links) < 8 {
				t.Skip("space too small")
			}
			group := append([]links.Link(nil), g.links...)
			p.handle(group[0], false, &sys.cfg)
			p.addCandidate(group[0], g)
			p.handle(group[0], false, &sys.cfg)
			p.handle(group[1], false, &sys.cfg)

			if got := p.votes[group[0]].blacklisted; got != tc.wantBlacklist {
				t.Errorf("link rejected twice: blacklisted %v, want %v", got, tc.wantBlacklist)
			}
			_, kept := p.cands[group[7]]
			if g.retired != tc.wantRollback || kept == tc.wantRollback {
				t.Errorf("group retired %v, unjudged link kept %v; want rollback %v", g.retired, kept, tc.wantRollback)
			}
		})
	}
}
