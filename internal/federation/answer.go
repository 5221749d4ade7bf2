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
// either. An Answer is not safe for concurrent use.
type Answer struct {
	sparql.Projection

	// used[i] is the provenance of input solution i — the index space
	// of Projection.Members, not of the surviving rows.
	used []*links.Frozen
	// groupLinks[groupStart[g]:groupStart[g+1]] is group g's provenance,
	// sorted and distinct; built by the first Links call.
	groupLinks []links.Link
	groupStart []int32
}

// ResultSet decodes the answer. A row answers for every solution that
// projects onto its ID tuple, kept or not: their provenance is merged,
// and rows with one tuple share one set.
func (a *Answer) ResultSet() *ResultSet {
	out := &ResultSet{Vars: a.Vars, Ask: a.Ask}
	if a.Len() == 0 {
		return out
	}
	out.Rows = make([]Row, a.Len())
	if a.Group == nil {
		// An aggregate row depends on every solution that fed its
		// group; attributing provenance per group would need the
		// grouping keys of each input row, so attach the union — any
		// feedback on an aggregate answer concerns all links that
		// contributed to it.
		all := links.NewSet()
		for _, u := range a.used {
			u.AddTo(all)
		}
		for k := range out.Rows {
			out.Rows[k] = Row{Binding: a.Binding(k), Used: all.Clone()}
		}
		return out
	}
	sets := make([]links.Set, len(a.Members))
	for k := range out.Rows {
		g := a.Group[k]
		if sets[g] == nil {
			members := a.Members[g]
			u := a.used[members[0]].Set()
			for _, i := range members[1:] {
				a.used[i].AddTo(u)
			}
			sets[g] = u
		}
		out.Rows[k] = Row{Binding: a.Binding(k), Used: sets[g]}
	}
	return out
}

// Links returns the sameAs links row k used, in links.Set.Slice order:
// what ResultSet().Rows[k].Used.Slice() holds, without the set. The
// slice belongs to the answer; rows of one group share it.
func (a *Answer) Links(k int) []links.Link {
	if a.groupStart == nil {
		a.buildGroupLinks()
	}
	g := 0
	if a.Group != nil {
		g = int(a.Group[k])
	}
	return a.groupLinks[a.groupStart[g]:a.groupStart[g+1]]
}

// buildGroupLinks flattens every group's chains into one array. An
// aggregate answer is one group of all solutions (see ResultSet).
func (a *Answer) buildGroupLinks() {
	groups := len(a.Members)
	if a.Group == nil {
		groups = 1
	}
	a.groupStart = make([]int32, groups+1)
	for g := 0; g < groups; g++ {
		base := len(a.groupLinks)
		if a.Group == nil {
			for _, u := range a.used {
				a.groupLinks = u.AppendTo(a.groupLinks)
			}
		} else {
			for _, i := range a.Members[g] {
				a.groupLinks = a.used[i].AppendTo(a.groupLinks)
			}
		}
		seg := a.groupLinks[base:]
		slices.SortFunc(seg, links.Link.Compare)
		a.groupLinks = a.groupLinks[:base+len(slices.Compact(seg))]
		a.groupStart[g+1] = int32(len(a.groupLinks))
	}
}
