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

// vote is one link's feedback history: how often the user approved and
// rejected it, and whether it is blacklisted. A link is blacklisted when
// its rejections outnumber its approvals by the blacklist margin, which
// makes the blacklist resilient to erroneous feedback (Appendix C): a
// correct link wrongly rejected once is removed but can be rediscovered,
// while a genuinely wrong link accumulates a negative majority and stays
// out. Under fully correct feedback the rule reduces to "blacklist on
// first rejection", the plain §6.3 behaviour, because correct links
// never receive negatives. A blacklisted link stays blacklisted.
type vote struct {
	pos, neg    int32
	blacklisted bool
}

// group is what one state-action pair's explorations admitted, and the
// feedback on those links. Rollback fires when a group's rejections
// reach the threshold AND outnumber its approvals, so a flood of wrong
// links is cleaned quickly while a mostly-correct group survives
// sporadic (possibly erroneous) rejections. A rolled-back group is
// retired: its pair never explores again. The paper's §6.3 states
// rolled-back links "can be discovered later by another state-action
// pair with a better average return" — the offending pair itself is
// retired, which is also what makes strict convergence reachable under
// an ε-greedy policy.
type group struct {
	key      provKey
	links    []links.Link // nil once retired
	pos, neg int32
	retired  bool
}

// candInfo is per-candidate bookkeeping.
type candInfo struct {
	// gen is the group whose exploration admitted this link; nil for
	// initial candidates.
	gen *group
	// slot is the index of the link's live entry in order. A link
	// removed and admitted again leaves its old entry behind; only the
	// entry at slot is drawn, so every candidate is drawn equally often.
	slot int
}

// partition owns one share-nothing slice of the search space (§6.2): a
// subset of dataset-1 entities crossed with all of dataset 2, its own
// candidate set, RL controller, and the feedback records the blacklist
// and rollback read.
type partition struct {
	space *feature.Space
	ctrl  *rl.Controller[links.Link, feature.Key]
	rng   *stream // shared with ctrl: action picks, ε-greedy draws, sampling

	cands  map[links.Link]candInfo
	order  []links.Link // append-only sampling order; lazily compacted
	dead   int          // entries of order that are no candidate's slot
	votes  map[links.Link]vote
	groups map[provKey]*group
	// blacklisted counts the votes marked blacklisted.
	blacklisted int

	// episode counters
	explored     int
	explorations int
	removed      int
	rollbacks    int
	spared       int
	admitted     []int // links each exploration admitted
	rolledBack   []int // group size at each rollback
}

func newPartition(space *feature.Space, epsilon float64, rng *stream) *partition {
	return &partition{
		space:  space,
		ctrl:   rl.New[links.Link, feature.Key](epsilon, rng.Rand),
		rng:    rng,
		cands:  make(map[links.Link]candInfo),
		votes:  make(map[links.Link]vote),
		groups: make(map[provKey]*group),
	}
}

// group returns the record of a state-action pair, creating it on first
// use.
func (p *partition) group(key provKey) *group {
	g := p.groups[key]
	if g == nil {
		g = &group{key: key}
		p.groups[key] = g
	}
	return g
}

func (p *partition) addCandidate(l links.Link, gen *group) bool {
	if _, ok := p.cands[l]; ok {
		return false
	}
	p.cands[l] = candInfo{gen: gen, slot: len(p.order)}
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

// sample draws a uniformly random current candidate (§7.1). It retries
// over the append-only order slice until it lands on a live entry,
// compacting when it gets too stale, which keeps sampling deterministic
// under a seeded rng.
func (p *partition) sample() (links.Link, bool) {
	if len(p.cands) == 0 {
		return links.Link{}, false
	}
	if p.dead*2 > len(p.order) {
		p.compact()
	}
	for {
		i := p.rng.Intn(len(p.order))
		l := p.order[i]
		if info, ok := p.cands[l]; ok && info.slot == i {
			return l, true
		}
	}
}

func (p *partition) compact() {
	kept := p.order[:0]
	for i, l := range p.order {
		if info, ok := p.cands[l]; ok && info.slot == i {
			info.slot = len(kept)
			p.cands[l] = info
			kept = append(kept, l)
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

	v := p.votes[l]
	if positive {
		v.pos++
		p.votes[l] = v
		if info.gen != nil {
			info.gen.pos++
		}
		if firstVisit {
			p.explore(l, cfg)
		}
		return
	}

	// Negative feedback: remove the link (Algorithm 1 line 20).
	v.neg++
	p.removeCandidate(l)
	p.removed++
	if m := cfg.BlacklistMargin; m > 0 && !v.blacklisted && v.neg-v.pos >= int32(m) {
		v.blacklisted = true
		p.blacklisted++
	}
	p.votes[l] = v
	if g := info.gen; g != nil {
		g.neg++
		// Rollback needs a "sufficient number" of negatives (§6.3):
		// the absolute threshold, scaled up for larger generation
		// groups so that a handful of rejections does not erase a big,
		// possibly mixed batch — but capped at 8× the base threshold so
		// that a catastrophic flood is still rolled back long before
		// link-by-link feedback could clean it — and in any case a
		// negative majority.
		need := cfg.RollbackThreshold
		if scaled := len(g.links) / 16; scaled > need {
			need = scaled
		}
		if ceil := 8 * cfg.RollbackThreshold; need > ceil {
			need = ceil
		}
		if cfg.RollbackThreshold > 0 && int(g.neg) >= need && g.neg > g.pos {
			p.rollback(g)
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
func (p *partition) credit(gen *group, reward float64) {
	var seen [maxChainDepth]provKey
	for n := 0; gen != nil && n < maxChainDepth; n++ {
		for _, pk := range seen[:n] {
			if pk == gen.key {
				return
			}
		}
		seen[n] = gen.key
		p.ctrl.RecordReturn(gen.key.state, gen.key.action, reward)
		parent, ok := p.cands[gen.key.state]
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
	g := p.groups[pk]
	if g != nil && g.retired {
		return
	}
	score := fs.Score(action)
	p.explorations++
	found := p.space.FindInRange(action, score-cfg.StepSize, score+cfg.StepSize)
	n := 0
	for _, nl := range found {
		if _, ok := p.cands[nl]; ok || p.votes[nl].blacklisted {
			continue
		}
		if g == nil {
			g = p.group(pk)
		}
		p.addCandidate(nl, g)
		g.links = append(g.links, nl)
		n++
	}
	p.explored += n
	p.admitted = append(p.admitted, n)
}

// rollback removes every link generated by a state-action pair that has
// accumulated enough negative feedback (§6.3). Links removed this way
// are not blacklisted: they may include correct links that another
// state-action pair can rediscover. Links with a positive feedback
// majority survive.
func (p *partition) rollback(g *group) {
	size := len(g.links)
	removedAny := false
	for _, l := range g.links {
		// Spare links the user has vouched for at least as often as
		// rejected: their own negatives will remove them if wrong.
		if v := p.votes[l]; v.pos > 0 && v.pos >= v.neg {
			if _, ok := p.cands[l]; ok {
				p.spared++
			}
			continue
		}
		if p.removeCandidate(l) {
			removedAny = true
		}
	}
	g.links = nil
	g.retired = true
	if removedAny {
		p.rollbacks++
		p.rolledBack = append(p.rolledBack, size)
	}
}

func (p *partition) resetEpisodeCounters() {
	p.explored, p.explorations, p.removed, p.rollbacks, p.spared = 0, 0, 0, 0, 0
	p.admitted, p.rolledBack = p.admitted[:0], p.rolledBack[:0]
}
