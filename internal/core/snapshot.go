package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"alex/internal/feature"
	"alex/internal/links"
	"alex/internal/rl"
)

// snapshotVersion guards against restoring incompatible snapshots.
const snapshotVersion = 1

// Snapshots let a long-running deployment (the paper's batch-mode
// service provider, §7.2) checkpoint everything ALEX has learned —
// candidate links with their generation provenance, the blacklist,
// feedback vote tallies, rollback state, and the per-partition
// action-value tables and policies — and resume later, exactly: the
// snapshot also carries how far every random stream has been read and
// each partition's sampling order, so a restored system given the same
// feedback makes the choices the saved one would have made
// (TestResumeIsExact). ε is fixed (§4.4.1) and comes from the
// configuration, not the snapshot.
//
// A snapshot is only valid against a System built over the same
// datasets with the same configuration and partition count: dictionary
// IDs are positional, so the graphs must be loaded identically.
//
// Stream positions and Order are optional within snapshotVersion 1: a
// snapshot written without them (gob decodes the missing fields as
// zero) restores to streams at their seed and candidates sampled in
// link order (TestRestoreSnapshotWithoutPositions). A snapshot that
// still carries a partition's ε, written when ε could decay, loads
// too: gob skips the field.

type provWire struct {
	State  links.Link
	Action feature.Key
}

type candWire struct {
	Link   links.Link
	HasGen bool
	Gen    provWire
}

type voteWire struct {
	Link links.Link
	N    int
}

type groupWire struct {
	Key   provWire
	Links []links.Link
}

type provCountWire struct {
	Key provWire
	N   int
}

type partitionWire struct {
	Cands     []candWire
	Blacklist []links.Link
	// Approved, every link with an approval, went: it equals the links
	// in PosVotes. gob skips it in a snapshot that still carries it.
	PosVotes   []voteWire
	NegVotes   []voteWire
	Generated  []groupWire
	NegCount   []provCountWire
	PosCount   []provCountWire
	RolledBack []provWire
	QTable     []rl.TableEntry[links.Link, feature.Key]
	Policy     []rl.PolicyEntry[links.Link, feature.Key]
	// Order is the sampling order verbatim, removed links included:
	// sample draws an index into it, so its length and stale slots
	// decide which link a given draw lands on.
	Order   []links.Link
	RandPos uint64
}

type systemWire struct {
	Version    int
	Episode    int
	RelaxedAt  int
	SamplerPos uint64
	Parts      []partitionWire
}

// Save writes a snapshot of the system's learned state. Take snapshots
// between episodes (first-visit bookkeeping within an open episode is
// not persisted).
func (s *System) Save(w io.Writer) error {
	wire := systemWire{
		Version:    snapshotVersion,
		Episode:    s.ep,
		RelaxedAt:  s.relaxedAt,
		SamplerPos: s.rng.pos(),
	}
	for _, p := range s.parts {
		wire.Parts = append(wire.Parts, exportPartition(p))
	}
	return gob.NewEncoder(w).Encode(&wire)
}

// Restore replaces the system's learned state from a snapshot taken on
// an identically constructed System.
func (s *System) Restore(r io.Reader) error {
	var wire systemWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return fmt.Errorf("core: decode snapshot: %w", err)
	}
	if wire.Version != snapshotVersion {
		return fmt.Errorf("core: snapshot version %d, want %d", wire.Version, snapshotVersion)
	}
	if len(wire.Parts) != len(s.parts) {
		return fmt.Errorf("core: snapshot has %d partitions, system has %d", len(wire.Parts), len(s.parts))
	}
	for i, pw := range wire.Parts {
		importPartition(s.parts[i], pw)
	}
	s.ep = wire.Episode
	s.relaxedAt = wire.RelaxedAt
	s.rng.seek(wire.SamplerPos)
	s.unchanged = 0
	s.prevCands = nil
	return nil
}

func exportPartition(p *partition) partitionWire {
	var w partitionWire
	for _, l := range sortedCandLinks(p.cands) {
		cw := candWire{Link: l}
		if gen := p.cands[l].gen; gen != nil {
			cw.HasGen = true
			cw.Gen = provWire{State: gen.key.state, Action: gen.key.action}
		}
		w.Cands = append(w.Cands, cw)
	}
	for l, v := range p.votes {
		if v.blacklisted {
			w.Blacklist = append(w.Blacklist, l)
		}
		if v.pos > 0 {
			w.PosVotes = append(w.PosVotes, voteWire{Link: l, N: int(v.pos)})
		}
		if v.neg > 0 {
			w.NegVotes = append(w.NegVotes, voteWire{Link: l, N: int(v.neg)})
		}
	}
	sort.Slice(w.Blacklist, func(i, j int) bool { return linkLess(w.Blacklist[i], w.Blacklist[j]) })
	sortVotes(w.PosVotes)
	sortVotes(w.NegVotes)
	for pk, g := range p.groups {
		key := provWire{State: pk.state, Action: pk.action}
		if len(g.links) > 0 {
			w.Generated = append(w.Generated, groupWire{Key: key, Links: g.links})
		}
		if g.neg > 0 {
			w.NegCount = append(w.NegCount, provCountWire{Key: key, N: int(g.neg)})
		}
		if g.pos > 0 {
			w.PosCount = append(w.PosCount, provCountWire{Key: key, N: int(g.pos)})
		}
		if g.retired {
			w.RolledBack = append(w.RolledBack, key)
		}
	}
	sort.Slice(w.Generated, func(i, j int) bool { return provLess(w.Generated[i].Key, w.Generated[j].Key) })
	sortProvCounts(w.NegCount)
	sortProvCounts(w.PosCount)
	sort.Slice(w.RolledBack, func(i, j int) bool { return provLess(w.RolledBack[i], w.RolledBack[j]) })
	w.QTable, w.Policy = p.ctrl.Export()
	w.Order = p.order // encoded before Save returns, so no copy
	w.RandPos = p.rng.pos()
	return w
}

func importPartition(p *partition, w partitionWire) {
	p.groups = make(map[provKey]*group, len(w.Generated))
	groupOf := func(pw provWire) *group { return p.group(provKey{state: pw.State, action: pw.Action}) }
	p.cands = make(map[links.Link]candInfo, len(w.Cands))
	p.order = append(p.order[:0], w.Order...)
	for _, cw := range w.Cands {
		var gen *group
		if cw.HasGen {
			gen = groupOf(cw.Gen)
		}
		p.cands[cw.Link] = candInfo{gen: gen, slot: len(p.order)}
		if len(w.Order) == 0 {
			p.order = append(p.order, cw.Link)
		}
	}
	// A candidate's live entry is its last one: a checkpoint written
	// before slots existed may hold an earlier entry of a link that was
	// removed and admitted again.
	for i, l := range p.order {
		if info, ok := p.cands[l]; ok {
			info.slot = i
			p.cands[l] = info
		}
	}
	// Every candidate owns one entry, so the rest are dead.
	p.dead = len(p.order) - len(p.cands)
	p.votes = make(map[links.Link]vote, len(w.NegVotes)+len(w.PosVotes))
	for _, vw := range w.PosVotes {
		v := p.votes[vw.Link]
		v.pos = int32(vw.N)
		p.votes[vw.Link] = v
	}
	for _, vw := range w.NegVotes {
		v := p.votes[vw.Link]
		v.neg = int32(vw.N)
		p.votes[vw.Link] = v
	}
	for _, l := range w.Blacklist {
		v := p.votes[l]
		v.blacklisted = true
		p.votes[l] = v
	}
	p.blacklisted = len(w.Blacklist)
	for _, gw := range w.Generated {
		groupOf(gw.Key).links = append([]links.Link(nil), gw.Links...)
	}
	for _, c := range w.NegCount {
		groupOf(c.Key).neg = int32(c.N)
	}
	for _, c := range w.PosCount {
		groupOf(c.Key).pos = int32(c.N)
	}
	for _, pw := range w.RolledBack {
		groupOf(pw).retired = true
	}
	p.ctrl.Import(w.QTable, w.Policy)
	p.rng.seek(w.RandPos)
	p.resetEpisodeCounters()
}

func sortVotes(vs []voteWire) {
	sort.Slice(vs, func(i, j int) bool { return linkLess(vs[i].Link, vs[j].Link) })
}

func sortProvCounts(cs []provCountWire) {
	sort.Slice(cs, func(i, j int) bool { return provLess(cs[i].Key, cs[j].Key) })
}

func sortedCandLinks(m map[links.Link]candInfo) []links.Link {
	out := make([]links.Link, 0, len(m))
	for l := range m {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return linkLess(out[i], out[j]) })
	return out
}

func linkLess(a, b links.Link) bool {
	if a.E1 != b.E1 {
		return a.E1 < b.E1
	}
	return a.E2 < b.E2
}

func provLess(a, b provWire) bool {
	if a.State != b.State {
		return linkLess(a.State, b.State)
	}
	if a.Action.P1 != b.Action.P1 {
		return a.Action.P1 < b.Action.P1
	}
	return a.Action.P2 < b.Action.P2
}
