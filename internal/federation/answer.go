package federation

import (
	"slices"

	"alex/internal/links"
	"alex/internal/sparql"
)

// Answer is an evaluated query with nothing decoded: the finalized
// rows as a projection over the executor's ID rows, plus the provenance
// chain of every solution the executor produced. Two renderers read it.
// ResultSet decodes it into maps and link sets for library callers;
// internal/server writes JSON from Term and Links and never builds
// either. An Answer lives in the Scratch it was evaluated in, and is
// not safe for concurrent use.
type Answer struct {
	sparql.Projection

	// prov[i] is the provenance chain, in arena, of input solution i —
	// the index space of Projection.Members, not of the surviving rows.
	prov  []int32
	arena provArena
	// groupLinks[groupStart[g]:groupStart[g+1]] is group g's provenance,
	// sorted and distinct; built by the first Links call.
	groupLinks []links.Link
	groupStart []int32
}

// ResultSet decodes the answer into memory of its own. A row answers
// for every solution that projects onto its ID tuple, kept or not:
// their provenance is merged, and rows with one tuple share one set.
func (a *Answer) ResultSet() *ResultSet {
	out := &ResultSet{Vars: slices.Clone(a.Vars), Ask: a.Ask}
	if a.Len() == 0 {
		return out
	}
	out.Rows = make([]Row, a.Len())
	sets := make([]links.Set, len(a.Members))
	for k := range out.Rows {
		g := a.Group[k]
		if sets[g] == nil {
			sets[g] = links.NewSet(a.Links(k)...)
		}
		out.Rows[k] = Row{Binding: a.Binding(k), Used: sets[g]}
	}
	return out
}

// Links returns the sameAs links row k used, in links.Set.Slice order:
// what ResultSet().Rows[k].Used.Slice() holds, without the set. The
// slice belongs to the answer; rows of one group share it.
func (a *Answer) Links(k int) []links.Link {
	if len(a.groupStart) == 0 {
		a.buildGroupLinks()
	}
	g := a.Group[k]
	return a.groupLinks[a.groupStart[g]:a.groupStart[g+1]]
}

// buildGroupLinks flattens every group's chains into one array.
func (a *Answer) buildGroupLinks() {
	a.groupStart = append(a.groupStart[:0], 0)
	for _, members := range a.Members {
		base := len(a.groupLinks)
		for _, i := range members {
			a.groupLinks = a.arena.appendTo(a.groupLinks, a.prov[i])
		}
		seg := a.groupLinks[base:]
		slices.SortFunc(seg, links.Link.Compare)
		a.groupLinks = a.groupLinks[:base+len(slices.Compact(seg))]
		a.groupStart = append(a.groupStart, int32(len(a.groupLinks)))
	}
}
