package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"

	"alex/internal/feature"
	"alex/internal/links"
	"alex/internal/rdf"
	"alex/internal/rl"
	"alex/internal/wal"
)

// Snapshots let a long-running deployment (the paper's batch-mode
// service provider, §7.2) checkpoint everything ALEX has learned —
// candidate links with their generation provenance, feedback votes and
// the blacklist, rollback state, and the per-partition action-value
// tables — and resume later, exactly: the snapshot also carries how far
// every random stream has been read and each partition's sampling
// order, so a restored system given the same feedback makes the choices
// the saved one would have made (TestResumeIsExact). ε is fixed
// (§4.4.1) and comes from the configuration, not the snapshot.
//
// A snapshot is only valid against a System built over the same
// datasets with the same configuration and partition count: dictionary
// IDs are positional, so the graphs must be loaded identically.
//
// A snapshot is uvarint fields: magic, version, episode, relaxedAt, the
// sampler's stream position, the partition count, then per partition
// five counted tables, each sorted so equal states save equal bytes,
// and its stream position:
//
//	groups      state, action, pos, neg, retired, its links
//	candidates  link, generating group (0: none; i: the ith group)
//	votes       link, pos, neg, blacklisted
//	Q-table     state, action, sum (IEEE bits byte-reversed), n
//	order       link: the sampling order verbatim, stale entries included
//
// The greedy policy is not saved: rl.Import derives it from the Q-table.
const (
	snapshotMagic   = "ALEXSNAP"
	snapshotVersion = 2
)

// Save writes a snapshot of the system's learned state. Take snapshots
// between episodes (first-visit bookkeeping within an open episode is
// not persisted).
func (s *System) Save(w io.Writer) error {
	b := binary.AppendUvarint([]byte(snapshotMagic), snapshotVersion)
	b = appendUvarints(b, uint64(s.ep), uint64(s.relaxedAt), s.rng.pos(), uint64(len(s.parts)))
	for _, p := range s.parts {
		b = p.appendState(b)
	}
	_, err := w.Write(b)
	return err
}

// Restore replaces the system's learned state from a snapshot taken on
// an identically constructed System. It decodes the whole snapshot
// before it installs any of it, so a failed Restore changes nothing.
func (s *System) Restore(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("core: read snapshot: %w", err)
	}
	snap, err := decodeSnapshot(data, len(s.parts))
	if err != nil {
		return err
	}
	for i, st := range snap.parts {
		s.parts[i].install(st)
	}
	s.ep, s.relaxedAt = int(snap.ep), int(snap.relaxedAt)
	s.rng.seek(snap.samplerPos)
	s.unchanged = 0
	s.prevCands = nil
	return nil
}

// snapshot is a decoded snapshot, not yet installed.
type snapshot struct {
	ep, relaxedAt, samplerPos uint64
	parts                     []partState
}

// partState is one partition's share of a snapshot.
type partState struct {
	cands  map[links.Link]candInfo
	order  []links.Link
	votes  map[links.Link]vote
	groups map[provKey]*group
	table  []rl.TableEntry[links.Link, feature.Key]
	pos    uint64
}

func decodeSnapshot(data []byte, parts int) (*snapshot, error) {
	switch {
	case bytes.HasPrefix(data, []byte("ALEXCKPT")):
		return nil, foreign("the ALEXCKPT envelope of the cross-shard prepare/commit protocol")
	case bytes.Contains(data[:min(len(data), 32)], []byte("systemWire")):
		return nil, foreign("a gob stream, snapshot version 1")
	case !bytes.HasPrefix(data, []byte(snapshotMagic)):
		return nil, foreign("no snapshot magic")
	}
	f := wal.NewFields(data[len(snapshotMagic):])
	if v := f.Uvarint(); f.Err() == nil && v != snapshotVersion {
		return nil, foreign(fmt.Sprintf("snapshot version %d", v))
	}
	snap := &snapshot{ep: f.Uvarint(), relaxedAt: f.Uvarint(), samplerPos: f.Uvarint()}
	if n := f.Count(); f.Err() == nil && n != parts {
		return nil, fmt.Errorf("core: snapshot has %d partitions, system has %d", n, parts)
	}
	snap.parts = make([]partState, parts)
	for i := range snap.parts {
		snap.parts[i] = readPartState(f)
	}
	if err := f.Done(); err != nil {
		return nil, fmt.Errorf("core: decode snapshot: %w", err)
	}
	return snap, nil
}

// foreign refuses bytes some other build wrote, naming what they are.
func foreign(what string) error {
	return fmt.Errorf("core: %s, which this build does not read; start from an empty data directory", what)
}

func (p *partition) appendState(b []byte) []byte {
	keys := sortedKeys(p.groups, provKey.compare)
	index := make(map[*group]uint64, len(keys))
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for i, k := range keys {
		g := p.groups[k]
		index[g] = uint64(i) + 1
		b = appendUvarints(appendKey(appendLink(b, k.state), k.action), uint64(g.pos), uint64(g.neg), bit(g.retired))
		b = appendLinks(b, g.links)
	}
	cands := sortedKeys(p.cands, links.Link.Compare)
	b = binary.AppendUvarint(b, uint64(len(cands)))
	for _, l := range cands {
		b = appendUvarints(appendLink(b, l), index[p.cands[l].gen])
	}
	voted := sortedKeys(p.votes, links.Link.Compare)
	b = binary.AppendUvarint(b, uint64(len(voted)))
	for _, l := range voted {
		v := p.votes[l]
		b = appendUvarints(appendLink(b, l), uint64(v.pos), uint64(v.neg), bit(v.blacklisted))
	}
	// Export keeps each state's rows together in first-seen order, so
	// a stable sort by state keeps argmax's tie-break.
	table := p.ctrl.Export()
	slices.SortStableFunc(table, func(x, y rl.TableEntry[links.Link, feature.Key]) int { return x.State.Compare(y.State) })
	b = binary.AppendUvarint(b, uint64(len(table)))
	for _, e := range table {
		b = appendKey(appendLink(b, e.State), e.Action)
		b = appendUvarints(b, bits.ReverseBytes64(math.Float64bits(e.Sum)), uint64(e.N))
	}
	return binary.AppendUvarint(appendLinks(b, p.order), p.rng.pos())
}

// readPartState decodes what appendState wrote. A state-action pair
// with two groups, a generating group past the groups, or a candidate
// without an entry in the sampling order fails f.
func readPartState(f *wal.Fields) partState {
	n := f.Count()
	st := partState{groups: make(map[provKey]*group, n)}
	groups := make([]*group, n)
	for i := range groups {
		g := &group{key: provKey{readLink(f), readKey(f)}, pos: int32(f.Uvarint()), neg: int32(f.Uvarint()), retired: f.Uvarint() != 0}
		g.links = readLinks(f)
		groups[i], st.groups[g.key] = g, g
	}
	if len(st.groups) != n {
		f.Fail(errors.New("a state-action pair has two groups"))
	}

	n = f.Count()
	st.cands = make(map[links.Link]candInfo, n)
	for range n {
		l, gi := readLink(f), f.Uvarint()
		info := candInfo{slot: -1}
		if gi > uint64(len(groups)) {
			f.Fail(fmt.Errorf("candidate generated by group %d of %d", gi, len(groups)))
		} else if gi > 0 {
			info.gen = groups[gi-1]
		}
		st.cands[l] = info
	}

	n = f.Count()
	st.votes = make(map[links.Link]vote, n)
	for range n {
		l := readLink(f)
		st.votes[l] = vote{pos: int32(f.Uvarint()), neg: int32(f.Uvarint()), blacklisted: f.Uvarint() != 0}
	}

	st.table = make([]rl.TableEntry[links.Link, feature.Key], f.Count())
	for i := range st.table {
		e := &st.table[i]
		e.State, e.Action = readLink(f), readKey(f)
		e.Sum, e.N = math.Float64frombits(bits.ReverseBytes64(f.Uvarint())), int(f.Uvarint())
	}

	// A candidate's live entry is its last one: a link removed and
	// admitted again left its earlier entries behind.
	st.order = readLinks(f)
	for i, l := range st.order {
		if info, ok := st.cands[l]; ok {
			info.slot = i
			st.cands[l] = info
		}
	}
	for l, info := range st.cands {
		if info.slot < 0 {
			f.Fail(fmt.Errorf("candidate %v has no entry in the sampling order", l))
			break
		}
	}
	st.pos = f.Uvarint()
	return st
}

func (p *partition) install(st partState) {
	p.cands, p.order, p.votes, p.groups = st.cands, st.order, st.votes, st.groups
	// Every candidate owns one entry, so the rest are dead.
	p.dead = len(p.order) - len(p.cands)
	p.blacklisted = 0
	for _, v := range p.votes {
		if v.blacklisted {
			p.blacklisted++
		}
	}
	p.ctrl.Import(st.table)
	p.rng.seek(st.pos)
	p.resetEpisodeCounters()
}

func (k provKey) compare(o provKey) int {
	return cmp.Or(k.state.Compare(o.state), cmp.Compare(k.action.P1, o.action.P1), cmp.Compare(k.action.P2, o.action.P2))
}

func sortedKeys[K comparable, V any](m map[K]V, compare func(K, K) int) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compare)
	return keys
}

func appendUvarints(b []byte, vs ...uint64) []byte {
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func appendLink(b []byte, l links.Link) []byte { return appendUvarints(b, uint64(l.E1), uint64(l.E2)) }

func appendKey(b []byte, k feature.Key) []byte { return appendUvarints(b, uint64(k.P1), uint64(k.P2)) }

func appendLinks(b []byte, ls []links.Link) []byte {
	b = binary.AppendUvarint(b, uint64(len(ls)))
	for _, l := range ls {
		b = appendLink(b, l)
	}
	return b
}

func readLink(f *wal.Fields) links.Link {
	return links.Link{E1: rdf.ID(f.Uvarint()), E2: rdf.ID(f.Uvarint())}
}

func readKey(f *wal.Fields) feature.Key {
	return feature.Key{P1: rdf.ID(f.Uvarint()), P2: rdf.ID(f.Uvarint())}
}

func readLinks(f *wal.Fields) []links.Link {
	ls := make([]links.Link, f.Count())
	for i := range ls {
		ls[i] = readLink(f)
	}
	return ls
}
