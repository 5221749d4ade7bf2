package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"alex/internal/federation"
	"alex/internal/links"
	"alex/internal/rdf"
	"alex/internal/server"
	"alex/internal/store"
	"alex/internal/synth"
)

type digest = [sha256.Size]byte

// field appends one length-prefixed string, so no two different field
// sequences concatenate to the same bytes.
func field(b *strings.Builder, s string) {
	b.WriteString(strconv.Itoa(len(s)))
	b.WriteByte(':')
	b.WriteString(s)
}

// canonRow renders one answer row independently of map and link order.
func canonRow(row server.RowJSON) string {
	vars := make([]string, 0, len(row.Binding))
	for v := range row.Binding {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	var b strings.Builder
	for _, v := range vars {
		t := row.Binding[v]
		field(&b, v)
		field(&b, t.Kind)
		field(&b, t.Value)
		field(&b, t.Datatype)
		field(&b, t.Lang)
	}
	b.WriteByte('|')
	ls := make([]string, len(row.Links))
	for i, l := range row.Links {
		var lb strings.Builder
		field(&lb, l.E1)
		field(&lb, l.E2)
		ls[i] = lb.String()
	}
	sort.Strings(ls)
	for _, l := range ls {
		b.WriteString(l)
	}
	return b.String()
}

// canonAnswer is the digest of an answer as a multiset of rows with
// their link provenance: rows sorted, links within a row sorted. Row
// order is deliberately not part of it — the router's merge and the
// two store backends may order equal answers differently.
func canonAnswer(rows []server.RowJSON) digest {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = canonRow(r)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(strconv.Itoa(len(k))))
		h.Write([]byte{':'})
		h.Write([]byte(k))
	}
	var d digest
	h.Sum(d[:0])
	return d
}

// linkSetDigest is the digest of a link set as sorted IRI pairs.
func linkSetDigest(dict *rdf.Dict, set links.Set) digest {
	keys := make([]string, 0, set.Len())
	for l := range set {
		var b strings.Builder
		field(&b, dict.Term(l.E1).Value)
		field(&b, dict.Term(l.E2).Value)
		keys = append(keys, b.String())
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
	}
	var d digest
	h.Sum(d[:0])
	return d
}

func hexDigest(d digest) string { return hex.EncodeToString(d[:]) }

// linkIndex is a link set by dataset-1 entity, for the oracle.
type linkIndex map[rdf.ID][]links.Link

func indexLinks(set links.Set) linkIndex {
	idx := make(linkIndex, set.Len())
	for l := range set {
		idx[l.E1] = append(idx[l.E1], l)
	}
	return idx
}

// oracleLookup answers lookupQuery(entity) from the dataset-2 store and
// a link set alone, without any federation code: one row per (link of
// the entity, name triple of the linked entity); rows that bind the same
// name share the union of the links that reach it, which is how a
// federated answer attributes duplicate solutions.
func oracleLookup(dict *rdf.Dict, t2 store.TripleStore, idx linkIndex, entity string) []server.RowJSON {
	e1, ok := dict.Lookup(rdf.IRI(entity))
	name, ok2 := dict.Lookup(synth.P2Name)
	if !ok || !ok2 {
		return nil
	}
	via := map[rdf.ID][]server.LinkJSON{} // name literal -> links reaching it
	var names []rdf.ID                    // one entry per solution
	for _, l := range idx[e1] {
		lj := server.LinkJSON{E1: entity, E2: dict.Term(l.E2).Value}
		t2.ForEachMatchIDs(l.E2, name, 0, true, true, false, func(_, _, o rdf.ID) bool {
			via[o] = append(via[o], lj)
			names = append(names, o)
			return true
		})
	}
	rows := make([]server.RowJSON, len(names))
	for i, o := range names {
		t := dict.Term(o)
		rows[i] = server.RowJSON{
			Binding: map[string]server.TermJSON{"n": {Kind: "literal", Value: t.Value, Datatype: t.Datatype, Lang: t.Lang}},
			Links:   via[o],
		}
	}
	return rows
}

// rowsJSON renders a federated result the way the server's /query
// handler does.
func rowsJSON(dict *rdf.Dict, rs *federation.ResultSet) []server.RowJSON {
	out := make([]server.RowJSON, len(rs.Rows))
	for i, row := range rs.Rows {
		rj := server.RowJSON{Binding: make(map[string]server.TermJSON, len(row.Binding))}
		for v, t := range row.Binding {
			kind := "iri"
			switch t.Kind {
			case rdf.KindLiteral:
				kind = "literal"
			case rdf.KindBlank:
				kind = "blank"
			}
			rj.Binding[v] = server.TermJSON{Kind: kind, Value: t.Value, Datatype: t.Datatype, Lang: t.Lang}
		}
		for _, l := range row.Used.Slice() {
			rj.Links = append(rj.Links, server.LinkJSON{E1: dict.Term(l.E1).Value, E2: dict.Term(l.E2).Value})
		}
		out[i] = rj
	}
	return out
}

// memFederator is a federator over the generated in-memory graphs and
// the initial links: the reference the disk-backed join answers must
// equal, and the mem side of federation.query_us.mem.
func memFederator(n *node) (*federation.Federator, error) {
	f := federation.New(n.dict)
	if err := f.AddSource("mem-1", n.g1); err != nil {
		return nil, err
	}
	if err := f.AddSource("mem-2", n.g2); err != nil {
		return nil, err
	}
	f.SetLinks(links.NewSet(n.initial...))
	return f, nil
}

// reference prepares what answers are checked against: the naive oracle
// over the initial links for lookups, the mem-backed federator for
// joins, and per-snapshot oracle indexes once feedback moves the links.
// It returns the mem federator when it built one.
func (r *runner) reference() (*federation.Federator, error) {
	n := r.d.primary()
	if r.w.feedback {
		r.resetSnapshots()
		return nil, nil
	}
	r.expected = map[string]digest{}
	if !r.w.joins {
		idx := indexLinks(links.NewSet(n.initial...))
		for i := range r.ops {
			o := &r.ops[i]
			if _, ok := r.expected[o.text]; !ok {
				r.expected[o.text] = canonAnswer(oracleLookup(n.dict, n.t2, idx, o.entity))
			}
		}
		return nil, nil
	}
	ref, err := memFederator(n)
	if err != nil {
		return nil, err
	}
	for i := range r.ops {
		rs, err := ref.Query(r.ops[i].text)
		if err != nil {
			return nil, fmt.Errorf("reference query %q: %w", r.ops[i].text, err)
		}
		r.expected[r.ops[i].text] = canonAnswer(rowsJSON(n.dict, rs))
	}
	return ref, nil
}
