package core

import (
	"alex/internal/feature"
	"alex/internal/links"
	"alex/internal/rl"
)

// provKey identifies the state-action pair that generated a set of
// explored links: the approved link (state) and the feature explored
// around (action).
type provKey struct {
	state  links.Link
	action feature.Key
}

// candInfo is per-candidate bookkeeping.
type candInfo struct {
	// gen is the state-action pair whose exploration admitted this
	// link; nil for initial candidates.
	gen *provKey
}

// partition owns one share-nothing slice of the search space (§6.2): a
// subset of dataset-1 entities crossed with all of dataset 2, its own
// candidate set, RL controller, blacklist and rollback state.
type partition struct {
	space *feature.Space
	ctrl  *rl.Controller[links.Link, feature.Key]
	rng   *stream // shared with ctrl: action picks, ε-greedy draws, sampling

	cands     map[links.Link]candInfo
	order     []links.Link // append-only sampling order; lazily compacted
	dead      int          // entries of order no longer in cands
	blacklist links.Set
	approved  links.Set
	generated map[provKey][]links.Link
	// negCount/posCount tally feedback on the links each state-action
	// pair generated. Rollback fires when a group's negatives reach the
	// threshold AND outnumber its positives, so a flood of wrong links
	// is cleaned quickly while a mostly-correct group survives sporadic
	// (possibly erroneous) rejections.
	negCount map[provKey]int
	posCount map[provKey]int
	// rolledBack marks state-action pairs whose generated links were
	// rolled back; such a pair never explores again. The paper's §6.3
	// states rolled-back links "can be discovered later by another
	// state-action pair with a better average return" — the offending
	// pair itself is retired, which is also what makes strict
	// convergence reachable under an ε-greedy policy.
	rolledBack map[provKey]bool
	// posVotes/negVotes count per-link feedback history. A link enters
	// the blacklist only when its negative votes exceed its positive
	// votes, which makes the blacklist resilient to erroneous feedback
	// (Appendix C): a correct link wrongly rejected once is removed but
	// can be rediscovered, while a genuinely wrong link accumulates a
	// negative majority and stays out. Under fully correct feedback the
	// rule reduces to "blacklist on first rejection", the plain §6.3
	// behaviour, because correct links never receive negatives.
	posVotes map[links.Link]int
	negVotes map[links.Link]int

	// episode counters
	explored     int
	explorations int
	removed      int
	rollbacks    int
	spared       int
}

func newPartition(space *feature.Space, epsilon float64, rng *stream) *partition {
	return &partition{
		space:      space,
		ctrl:       rl.New[links.Link, feature.Key](epsilon, rng.Rand),
		rng:        rng,
		cands:      make(map[links.Link]candInfo),
		blacklist:  links.NewSet(),
		approved:   links.NewSet(),
		generated:  make(map[provKey][]links.Link),
		negCount:   make(map[provKey]int),
		posCount:   make(map[provKey]int),
		rolledBack: make(map[provKey]bool),
		posVotes:   make(map[links.Link]int),
		negVotes:   make(map[links.Link]int),
	}
}

func (p *partition) addCandidate(l links.Link, gen *provKey) bool {
	if _, ok := p.cands[l]; ok {
		return false
	}
	p.cands[l] = candInfo{gen: gen}
	p.order = append(p.order, l)
	return true
}

func (p *partition) removeCandidate(l links.Link) bool {
	if _, ok := p.cands[l]; !ok {
		return false
	}
	delete(p.cands, l)
	p.dead++
	return true
}

// sample draws a uniformly random current candidate. It retries over
// the append-only order slice, compacting when it gets too stale, which
// keeps sampling deterministic under a seeded rng.
func (p *partition) sample() (links.Link, bool) {
	if len(p.cands) == 0 {
		return links.Link{}, false
	}
	if p.dead*2 > len(p.order) {
		p.compact()
	}
	for {
		l := p.order[p.rng.Intn(len(p.order))]
		if _, ok := p.cands[l]; ok {
			return l, true
		}
	}
}

func (p *partition) compact() {
	kept := p.order[:0]
	seen := make(map[links.Link]bool, len(p.cands))
	for _, l := range p.order {
		if _, ok := p.cands[l]; ok && !seen[l] {
			kept = append(kept, l)
			seen[l] = true
		}
	}
	p.order = kept
	p.dead = 0
}

// handle processes one feedback item for a link owned by this partition,
// implementing the policy-evaluation body of Algorithm 1 (lines 11-22)
// plus the blacklist and rollback optimizations.
func (p *partition) handle(l links.Link, positive bool, cfg *Config) {
	info, isCandidate := p.cands[l]
	if !isCandidate {
		return
	}

	// First-visit Monte Carlo bookkeeping (§4.4.1): within an episode,
	// only a state's first feedback propagates rewards along the
	// generation chain that led to it, and only the first positive
	// feedback triggers an exploration action. Without the second rule
	// a state receiving many feedback items per episode (common when
	// feedback arrives through query answers) would roll the ε die once
	// per item and flood the candidate set.
	firstVisit := p.ctrl.Visit(l)
	if firstVisit {
		reward := approveReward
		if !positive {
			reward = rejectReward
		}
		p.credit(info.gen, reward)
	}

	if positive {
		p.posVotes[l]++
		p.approved.Add(l)
		if info.gen != nil {
			p.posCount[*info.gen]++
		}
		if firstVisit {
			p.explore(l, cfg)
		}
		return
	}

	// Negative feedback: remove the link (Algorithm 1 line 20).
	p.negVotes[l]++
	p.removeCandidate(l)
	p.removed++
	margin := cfg.BlacklistMargin
	if margin < 1 {
		margin = 1
	}
	if cfg.UseBlacklist && p.negVotes[l]-p.posVotes[l] >= margin {
		p.blacklist.Add(l)
	}
	if info.gen != nil {
		pk := *info.gen
		p.negCount[pk]++
		// Rollback needs a "sufficient number" of negatives (§6.3):
		// the absolute threshold, scaled up for larger generation
		// groups so that a handful of rejections does not erase a big,
		// possibly mixed batch — but capped at 8× the base threshold so
		// that a catastrophic flood is still rolled back long before
		// link-by-link feedback could clean it — and in any case a
		// negative majority.
		need := cfg.RollbackThreshold
		if scaled := len(p.generated[pk]) / 16; scaled > need {
			need = scaled
		}
		if ceil := 8 * cfg.RollbackThreshold; need > ceil {
			need = ceil
		}
		if cfg.UseRollback && p.negCount[pk] >= need && p.negCount[pk] > p.posCount[pk] {
			p.rollback(pk)
		}
	}
}

// maxChainDepth bounds the reward walk up a generation chain.
const maxChainDepth = 64

// credit appends reward to the returns of every state-action pair that
// led to a link (Algorithm 1 line 14): the pair that admitted it, the
// pair that admitted that pair's state, and so on. Under noisy feedback
// a chain can loop — a rejected link re-admitted by a group descending
// from it — so the walk credits each pair once and stops at the first
// one it has already credited, and in any case after maxChainDepth.
func (p *partition) credit(gen *provKey, reward float64) {
	var seen [maxChainDepth]provKey
	for n := 0; gen != nil && n < maxChainDepth; n++ {
		for _, pk := range seen[:n] {
			if pk == *gen {
				return
			}
		}
		seen[n] = *gen
		p.ctrl.RecordReturn(gen.state, gen.action, reward)
		parent, ok := p.cands[gen.state]
		if !ok {
			return
		}
		gen = parent.gen
	}
}

// explore performs the action for an approved link: choose a feature of
// its feature set by the current policy and admit every link in the
// space whose score on that feature is within ±step (§4.2).
func (p *partition) explore(l links.Link, cfg *Config) {
	fs := p.space.FeatureSet(l)
	if len(fs) == 0 {
		return
	}
	var action feature.Key
	if cfg.UniformPolicy {
		keys := fs.Keys()
		action = keys[p.rng.Intn(len(keys))]
	} else {
		var ok bool
		action, ok = p.ctrl.ChooseAction(l, fs.Keys())
		if !ok {
			return
		}
	}
	pk := provKey{state: l, action: action}
	if p.rolledBack[pk] {
		return
	}
	score := fs.Score(action)
	p.explorations++
	found := p.space.FindInRange(action, score-cfg.StepSize, score+cfg.StepSize)
	for _, nl := range found {
		if p.blacklist.Has(nl) {
			continue
		}
		if p.addCandidate(nl, &pk) {
			p.generated[pk] = append(p.generated[pk], nl)
			p.explored++
		}
	}
}

// rollback removes every link generated by a state-action pair that has
// accumulated enough negative feedback (§6.3). Links removed this way
// are not blacklisted: they may include correct links that another
// state-action pair can rediscover. Links with a positive feedback
// majority survive.
func (p *partition) rollback(pk provKey) {
	removedAny := false
	for _, l := range p.generated[pk] {
		// Spare links the user has vouched for at least as often as
		// rejected: their own negatives will remove them if wrong.
		if p.posVotes[l] > 0 && p.posVotes[l] >= p.negVotes[l] {
			if _, ok := p.cands[l]; ok {
				p.spared++
			}
			continue
		}
		if p.removeCandidate(l) {
			removedAny = true
		}
	}
	p.generated[pk] = nil
	p.rolledBack[pk] = true
	if removedAny {
		p.rollbacks++
	}
}

func (p *partition) resetEpisodeCounters() {
	p.explored, p.explorations, p.removed, p.rollbacks, p.spared = 0, 0, 0, 0, 0
}
