package core

import (
	"fmt"

	"alex/internal/feature"
	"alex/internal/feedback"
	"alex/internal/links"
	"alex/internal/rdf"
	"alex/internal/store"
)

// System is a running ALEX instance over one dataset pair.
type System struct {
	cfg    Config
	parts  []*partition
	partOf map[rdf.ID]int // dataset-1 entity → partition index
	rng    *stream        // the feedback sampler's draws
	ep     int

	relaxedAt int       // first episode with <relaxedDelta change; 0 = not yet
	unchanged int       // consecutive episodes that left the candidate set as it was
	prevCands links.Set // candidate snapshot from BeginEpisode
}

// EpisodeStats summarizes one feedback episode.
type EpisodeStats struct {
	Episode  int
	Feedback int
	Negative int
	// Explored counts the links explorations admitted; Explorations
	// counts the explorations that searched the space for them, so
	// Explored/Explorations is the links one exploration admits.
	Explored     int
	Explorations int
	Removed      int
	Rollbacks    int
	// Spared counts the links rollbacks kept as candidates because the
	// user approved them at least as often as rejected them.
	Spared int
	// Admitted holds the links each exploration admitted: its length is
	// Explorations and its sum is Explored. RolledBack holds the size of
	// the group each rollback undid; its length is Rollbacks.
	Admitted   []int
	RolledBack []int
	// Blacklisted is the cumulative blacklist size after the episode.
	Blacklisted int
	// ChangedFrac is |C_now Δ C_prev| / max(1, |C_prev|).
	ChangedFrac float64
}

// NegativePct returns the percentage of feedback that was negative.
func (s EpisodeStats) NegativePct() float64 {
	if s.Feedback == 0 {
		return 0
	}
	return 100 * float64(s.Negative) / float64(s.Feedback)
}

// New builds a System: it partitions the dataset-1 entities round-robin
// (§6.2), constructs the filtered feature space of every partition
// (§6.1), and seeds the candidate sets with the initial links.
//
// g1 and g2 must share one dictionary. Initial links whose dataset-1
// entity is unknown are placed in partition 0.
func New(g1, g2 store.TripleStore, entities1, entities2 []rdf.ID, initial []links.Link, cfg Config) *System {
	if cfg.Partitions < 1 {
		cfg.Partitions = 1
	}
	if cfg.EpisodeSize < 1 {
		cfg.EpisodeSize = 1
	}
	if cfg.MaxEpisodes < 1 {
		cfg.MaxEpisodes = 100
	}
	s := &System{
		cfg:    cfg,
		partOf: make(map[rdf.ID]int, len(entities1)),
		rng:    newStream(cfg.Seed),
	}
	partEnts := feature.PartitionRoundRobin(entities1, cfg.Partitions)
	for pi, ents := range partEnts {
		for _, e := range ents {
			s.partOf[e] = pi
		}
	}

	// The partitions' spaces are built one after another — each build
	// parallelizes internally across GOMAXPROCS goroutines — against one
	// preparation of the dataset-2 side.
	spaces := feature.BuildPartitions(g1, g2, partEnts, entities2, feature.Options{Theta: cfg.Theta})

	s.parts = make([]*partition, len(partEnts))
	for pi := range partEnts {
		s.parts[pi] = newPartition(spaces[pi], cfg.Epsilon, newStream(cfg.Seed+int64(pi)+1))
	}
	for _, l := range initial {
		s.parts[s.partitionOf(l)].addCandidate(l, nil)
	}
	return s
}

func (s *System) partitionOf(l links.Link) int {
	if pi, ok := s.partOf[l.E1]; ok {
		return pi
	}
	return 0
}

// Candidates returns the current candidate link set across partitions.
func (s *System) Candidates() links.Set {
	out := links.NewSet()
	for _, p := range s.parts {
		for l := range p.cands {
			out.Add(l)
		}
	}
	return out
}

// CandidateCount returns |C| without materializing the set.
func (s *System) CandidateCount() int {
	n := 0
	for _, p := range s.parts {
		n += len(p.cands)
	}
	return n
}

// Episode returns the number of completed episodes.
func (s *System) Episode() int { return s.ep }

// Partitions returns the partition count.
func (s *System) Partitions() int { return len(s.parts) }

// SpaceSize returns the filtered space size and the unfiltered cross
// product, summed over partitions (Figure 5).
func (s *System) SpaceSize() (filtered, total int) {
	for _, p := range s.parts {
		filtered += p.space.Len()
		total += p.space.TotalPairs
	}
	return filtered, total
}

// PartitionCandidates returns the candidate set of one partition, for
// the per-partition views of Figure 7.
func (s *System) PartitionCandidates(pi int) links.Set {
	out := links.NewSet()
	for l := range s.parts[pi].cands {
		out.Add(l)
	}
	return out
}

// Feedback processes a single feedback item on a link: the core entry
// point used by the federated query layer (approve/reject of an answer)
// and by the episode driver.
func (s *System) Feedback(l links.Link, positive bool) {
	s.parts[s.partitionOf(l)].handle(l, positive, &s.cfg)
}

// sampleCandidate draws a uniformly random candidate across partitions.
func (s *System) sampleCandidate() (links.Link, int, bool) {
	total := s.CandidateCount()
	if total == 0 {
		return links.Link{}, 0, false
	}
	r := s.rng.Intn(total)
	for pi, p := range s.parts {
		if r < len(p.cands) {
			l, ok := p.sample()
			if !ok {
				continue
			}
			return l, pi, true
		}
		r -= len(p.cands)
	}
	// Unreachable unless all partitions are empty.
	return links.Link{}, 0, false
}

// BeginEpisode snapshots the candidate set for convergence accounting
// and resets the per-episode counters. RunEpisode calls it implicitly;
// a driver whose feedback arrives from outside (internal/server's
// writer) calls the episode phases explicitly.
func (s *System) BeginEpisode() {
	s.prevCands = s.Candidates()
	for _, p := range s.parts {
		p.resetEpisodeCounters()
	}
}

// SampleCandidate draws a uniformly random current candidate link, as
// the paper's feedback generator does (§7.1).
func (s *System) SampleCandidate() (links.Link, bool) {
	l, _, ok := s.sampleCandidate()
	return l, ok
}

// FinishEpisode improves every partition's policy (Algorithm 1 lines
// 24-33) and returns the episode's exploration/removal statistics and
// the changed-links fraction used for convergence.
func (s *System) FinishEpisode() EpisodeStats {
	st := EpisodeStats{Episode: s.ep + 1}
	for _, p := range s.parts {
		p.ctrl.EndEpisode()
		st.Explored += p.explored
		st.Explorations += p.explorations
		st.Removed += p.removed
		st.Rollbacks += p.rollbacks
		st.Spared += p.spared
		st.Admitted = append(st.Admitted, p.admitted...)
		st.RolledBack = append(st.RolledBack, p.rolledBack...)
		st.Blacklisted += p.blacklisted
	}
	s.ep++

	prev := s.prevCands
	if prev == nil {
		prev = links.NewSet()
	}
	now := s.Candidates()
	denom := prev.Len()
	if denom == 0 {
		denom = 1
	}
	st.ChangedFrac = float64(prev.SymmetricDiff(now)) / float64(denom)
	if s.relaxedAt == 0 && st.ChangedFrac < relaxedDelta {
		s.relaxedAt = s.ep
	}
	if st.ChangedFrac == 0 {
		s.unchanged++
	} else {
		s.unchanged = 0
	}
	return st
}

// Converged reports strict convergence: the last convergenceEpisodes
// episodes left the candidate set unchanged.
func (s *System) Converged() bool { return s.unchanged >= convergenceEpisodes }

// RunEpisode collects one episode of feedback (policy evaluation) and
// then improves the policy of every partition (Algorithm 1).
func (s *System) RunEpisode(oracle feedback.Judger) EpisodeStats {
	s.BeginEpisode()
	feedbackCount, negative := 0, 0
	for i := 0; i < s.cfg.EpisodeSize; i++ {
		l, pi, ok := s.sampleCandidate()
		if !ok {
			break
		}
		positive := oracle.Judge(l)
		feedbackCount++
		if !positive {
			negative++
		}
		s.parts[pi].handle(l, positive, &s.cfg)
	}
	st := s.FinishEpisode()
	st.Feedback = feedbackCount
	st.Negative = negative
	return st
}

// Result summarizes a full Run.
type Result struct {
	Episodes       int
	Converged      bool
	RelaxedEpisode int // first episode with <5% change (relaxed convergence; 0 = never)
	Stats          []EpisodeStats
}

// Run iterates policy evaluation and policy improvement until strict
// convergence (Converged) or MaxEpisodes. onEpisode, if non-nil, is
// called after every episode with that episode's stats — experiments
// use it to snapshot metrics.
func (s *System) Run(oracle feedback.Judger, onEpisode func(EpisodeStats)) Result {
	res := Result{}
	for s.ep < s.cfg.MaxEpisodes {
		st := s.RunEpisode(oracle)
		res.Stats = append(res.Stats, st)
		if onEpisode != nil {
			onEpisode(st)
		}
		if s.Converged() {
			res.Converged = true
			break
		}
	}
	res.Episodes = s.ep
	res.RelaxedEpisode = s.relaxedAt
	return res
}

// String summarizes the system state.
func (s *System) String() string {
	f, t := s.SpaceSize()
	return fmt.Sprintf("alex.System{episodes: %d, candidates: %d, partitions: %d, space: %d/%d}",
		s.ep, s.CandidateCount(), len(s.parts), f, t)
}
