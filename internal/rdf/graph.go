package rdf

import "sort"

// Graph is an in-memory RDF dataset with three access-path indexes
// (SPO, POS, OSP) over dictionary-encoded term IDs. Graph is not safe for
// concurrent mutation; concurrent reads are safe once loading is done.
type Graph struct {
	dict *Dict
	spo  map[ID]map[ID][]ID
	pos  map[ID]map[ID][]ID
	osp  map[ID]map[ID][]ID
	size int
}

// NewGraph returns an empty graph with its own private dictionary.
func NewGraph() *Graph { return NewGraphWithDict(NewDict()) }

// NewGraphWithDict returns an empty graph interning terms into d. Sharing
// a dictionary across graphs makes IDs comparable across datasets, which
// the linking layers rely on.
func NewGraphWithDict(d *Dict) *Graph {
	return &Graph{
		dict: d,
		spo:  make(map[ID]map[ID][]ID),
		pos:  make(map[ID]map[ID][]ID),
		osp:  make(map[ID]map[ID][]ID),
	}
}

// Dict returns the graph's dictionary.
func (g *Graph) Dict() *Dict { return g.dict }

// Size returns the number of distinct triples.
func (g *Graph) Size() int { return g.size }

// Insert adds a triple and reports whether it was new.
func (g *Graph) Insert(t Triple) bool {
	s := g.dict.Intern(t.S)
	p := g.dict.Intern(t.P)
	o := g.dict.Intern(t.O)
	return g.InsertIDs(s, p, o)
}

// InsertIDs adds a triple given already interned IDs and reports whether
// it was new.
func (g *Graph) InsertIDs(s, p, o ID) bool {
	po := g.spo[s]
	if po == nil {
		po = make(map[ID][]ID)
		g.spo[s] = po
	}
	objs := po[p]
	for _, existing := range objs {
		if existing == o {
			return false
		}
	}
	po[p] = append(objs, o)
	addIndex(g.pos, p, o, s)
	addIndex(g.osp, o, s, p)
	g.size++
	return true
}

func addIndex(idx map[ID]map[ID][]ID, a, b, c ID) {
	m := idx[a]
	if m == nil {
		m = make(map[ID][]ID)
		idx[a] = m
	}
	m[b] = append(m[b], c)
}

// Has reports whether the triple is present.
func (g *Graph) Has(t Triple) bool {
	s, ok := g.dict.Lookup(t.S)
	if !ok {
		return false
	}
	p, ok := g.dict.Lookup(t.P)
	if !ok {
		return false
	}
	o, ok := g.dict.Lookup(t.O)
	if !ok {
		return false
	}
	for _, existing := range g.spo[s][p] {
		if existing == o {
			return true
		}
	}
	return false
}

// Objects returns the object IDs of triples (s, p, ·).
func (g *Graph) Objects(s, p ID) []ID { return g.spo[s][p] }

// Subjects returns the subject IDs of triples (·, p, o).
func (g *Graph) Subjects(p, o ID) []ID { return g.pos[p][o] }

// SubjectIDs returns all distinct subject IDs in ascending order.
func (g *Graph) SubjectIDs() []ID {
	out := make([]ID, 0, len(g.spo))
	for s := range g.spo {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PredicateIDs returns all distinct predicate IDs in ascending order.
func (g *Graph) PredicateIDs() []ID {
	out := make([]ID, 0, len(g.pos))
	for p := range g.pos {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Attribute is a (predicate, object) pair of an entity.
type Attribute struct {
	Pred ID
	Obj  ID
}

// Entity returns all (predicate, object) pairs of subject s, ordered by
// predicate then object ID. This is the "entity = set of attributes" view
// of Section 4.1 of the paper.
func (g *Graph) Entity(s ID) []Attribute {
	po := g.spo[s]
	if len(po) == 0 {
		return nil
	}
	out := make([]Attribute, 0, len(po))
	for p, objs := range po {
		for _, o := range objs {
			out = append(out, Attribute{Pred: p, Obj: o})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pred != out[j].Pred {
			return out[i].Pred < out[j].Pred
		}
		return out[i].Obj < out[j].Obj
	})
	return out
}

// Pattern is a triple pattern; nil fields are wildcards.
type Pattern struct {
	S, P, O *Term
}

// ForEachMatch calls fn for every triple matching the pattern until fn
// returns false. Matching picks the most selective index available.
func (g *Graph) ForEachMatch(pat Pattern, fn func(Triple) bool) {
	var s, p, o ID
	var haveS, haveP, haveO bool
	if pat.S != nil {
		id, ok := g.dict.Lookup(*pat.S)
		if !ok {
			return
		}
		s, haveS = id, true
	}
	if pat.P != nil {
		id, ok := g.dict.Lookup(*pat.P)
		if !ok {
			return
		}
		p, haveP = id, true
	}
	if pat.O != nil {
		id, ok := g.dict.Lookup(*pat.O)
		if !ok {
			return
		}
		o, haveO = id, true
	}
	g.ForEachMatchIDs(s, p, o, haveS, haveP, haveO, func(ts, tp, to ID) bool {
		return fn(Triple{g.dict.Term(ts), g.dict.Term(tp), g.dict.Term(to)})
	})
}

// ForEachMatchIDs is the ID-level matcher behind ForEachMatch. The have*
// flags mark bound positions; unbound positions are wildcards. fn returns
// false to stop early.
func (g *Graph) ForEachMatchIDs(s, p, o ID, haveS, haveP, haveO bool, fn func(s, p, o ID) bool) {
	switch {
	case haveS && haveP && haveO:
		for _, oo := range g.spo[s][p] {
			if oo == o {
				fn(s, p, o)
				return
			}
		}
	case haveS && haveP:
		for _, oo := range g.spo[s][p] {
			if !fn(s, p, oo) {
				return
			}
		}
	case haveP && haveO:
		for _, ss := range g.pos[p][o] {
			if !fn(ss, p, o) {
				return
			}
		}
	case haveS && haveO:
		for _, pp := range g.osp[o][s] {
			if !fn(s, pp, o) {
				return
			}
		}
	case haveS:
		for pp, objs := range g.spo[s] {
			for _, oo := range objs {
				if !fn(s, pp, oo) {
					return
				}
			}
		}
	case haveP:
		for oo, subs := range g.pos[p] {
			for _, ss := range subs {
				if !fn(ss, p, oo) {
					return
				}
			}
		}
	case haveO:
		for ss, preds := range g.osp[o] {
			for _, pp := range preds {
				if !fn(ss, pp, o) {
					return
				}
			}
		}
	default:
		for ss, po := range g.spo {
			for pp, objs := range po {
				for _, o2 := range objs {
					if !fn(ss, pp, o2) {
						return
					}
				}
			}
		}
	}
}

// CountMatch returns the number of triples matching the ID pattern; used
// for selectivity estimation by the query engine. It counts straight off
// the index postings rather than enumerating matches, so planners can
// afford to estimate every pattern: two-bound patterns are O(1) plus one
// slice scan, one-bound patterns are O(distinct second key), and the
// all-wildcard pattern is O(1).
func (g *Graph) CountMatch(s, p, o ID, haveS, haveP, haveO bool) int {
	switch {
	case haveS && haveP && haveO:
		for _, oo := range g.spo[s][p] {
			if oo == o {
				return 1
			}
		}
		return 0
	case haveS && haveP:
		return len(g.spo[s][p])
	case haveP && haveO:
		return len(g.pos[p][o])
	case haveS && haveO:
		return len(g.osp[o][s])
	case haveS:
		n := 0
		for _, objs := range g.spo[s] {
			n += len(objs)
		}
		return n
	case haveP:
		n := 0
		for _, subs := range g.pos[p] {
			n += len(subs)
		}
		return n
	case haveO:
		n := 0
		for _, preds := range g.osp[o] {
			n += len(preds)
		}
		return n
	default:
		return g.size
	}
}

// Triples returns all triples. Intended for tests and small graphs.
func (g *Graph) Triples() []Triple {
	out := make([]Triple, 0, g.size)
	g.ForEachMatch(Pattern{}, func(t Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}
