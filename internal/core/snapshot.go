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
	Cands      []candWire
	Blacklist  []links.Link
	Approved   []links.Link
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
	s.prevCands = nil
	return nil
}

func sortedLinks(set links.Set) []links.Link { return set.Slice() }

func exportPartition(p *partition) partitionWire {
	var w partitionWire
	for _, l := range sortedCandLinks(p.cands) {
		cw := candWire{Link: l}
		if gen := p.cands[l].gen; gen != nil {
			cw.HasGen = true
			cw.Gen = provWire{State: gen.state, Action: gen.action}
		}
		w.Cands = append(w.Cands, cw)
	}
	w.Blacklist = sortedLinks(p.blacklist)
	w.Approved = sortedLinks(p.approved)
	w.PosVotes = exportVotes(p.posVotes)
	w.NegVotes = exportVotes(p.negVotes)
	for pk, ls := range p.generated {
		if len(ls) == 0 {
			continue
		}
		w.Generated = append(w.Generated, groupWire{
			Key:   provWire{State: pk.state, Action: pk.action},
			Links: append([]links.Link(nil), ls...),
		})
	}
	sortGroups(w.Generated)
	w.NegCount = exportProvCounts(p.negCount)
	w.PosCount = exportProvCounts(p.posCount)
	for pk := range p.rolledBack {
		w.RolledBack = append(w.RolledBack, provWire{State: pk.state, Action: pk.action})
	}
	sortProv(w.RolledBack)
	w.QTable, w.Policy = p.ctrl.Export()
	w.Order = p.order // encoded before Save returns, so no copy
	w.RandPos = p.rng.pos()
	return w
}

func importPartition(p *partition, w partitionWire) {
	p.cands = make(map[links.Link]candInfo, len(w.Cands))
	p.order = append(p.order[:0], w.Order...)
	for _, cw := range w.Cands {
		var gen *provKey
		if cw.HasGen {
			gen = &provKey{state: cw.Gen.State, action: cw.Gen.Action}
		}
		p.cands[cw.Link] = candInfo{gen: gen}
		if len(w.Order) == 0 {
			p.order = append(p.order, cw.Link)
		}
	}
	// Every add appends to order and every removal leaves its slot
	// behind, so the stale slots are the difference in length.
	p.dead = len(p.order) - len(p.cands)
	p.blacklist = links.NewSet(w.Blacklist...)
	p.approved = links.NewSet(w.Approved...)
	p.posVotes = importVotes(w.PosVotes)
	p.negVotes = importVotes(w.NegVotes)
	p.generated = make(map[provKey][]links.Link, len(w.Generated))
	for _, g := range w.Generated {
		p.generated[provKey{state: g.Key.State, action: g.Key.Action}] = append([]links.Link(nil), g.Links...)
	}
	p.negCount = importProvCounts(w.NegCount)
	p.posCount = importProvCounts(w.PosCount)
	p.rolledBack = make(map[provKey]bool, len(w.RolledBack))
	for _, pk := range w.RolledBack {
		p.rolledBack[provKey{state: pk.State, action: pk.Action}] = true
	}
	p.ctrl.Import(w.QTable, w.Policy)
	p.rng.seek(w.RandPos)
	p.resetEpisodeCounters()
}

func exportVotes(m map[links.Link]int) []voteWire {
	out := make([]voteWire, 0, len(m))
	for l, n := range m {
		out = append(out, voteWire{Link: l, N: n})
	}
	sort.Slice(out, func(i, j int) bool { return linkLess(out[i].Link, out[j].Link) })
	return out
}

func importVotes(vs []voteWire) map[links.Link]int {
	out := make(map[links.Link]int, len(vs))
	for _, v := range vs {
		out[v.Link] = v.N
	}
	return out
}

func exportProvCounts(m map[provKey]int) []provCountWire {
	out := make([]provCountWire, 0, len(m))
	for pk, n := range m {
		out = append(out, provCountWire{Key: provWire{State: pk.state, Action: pk.action}, N: n})
	}
	sort.Slice(out, func(i, j int) bool { return provLess(out[i].Key, out[j].Key) })
	return out
}

func importProvCounts(vs []provCountWire) map[provKey]int {
	out := make(map[provKey]int, len(vs))
	for _, v := range vs {
		out[provKey{state: v.Key.State, action: v.Key.Action}] = v.N
	}
	return out
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

func sortGroups(gs []groupWire) {
	sort.Slice(gs, func(i, j int) bool { return provLess(gs[i].Key, gs[j].Key) })
}

func sortProv(ps []provWire) {
	sort.Slice(ps, func(i, j int) bool { return provLess(ps[i], ps[j]) })
}
