package rdf

import (
	"sync"
	"sync/atomic"
)

// Graph is an in-memory RDF dataset over dictionary-encoded term IDs:
// an append buffer of inserted triples plus the sorted Index built
// from them on the first read after a mutation, so it answers every
// lookup with the same code as a segment file. Graph is not safe for
// concurrent mutation; concurrent reads are safe once loading is done.
type Graph struct {
	dict    *Dict
	mu      sync.Mutex // serialises building idx from pending
	pending []IDTriple // inserted since idx was built
	idx     atomic.Pointer[Index]
}

// NewGraph returns an empty graph with its own private dictionary.
func NewGraph() *Graph { return NewGraphWithDict(NewDict()) }

// NewGraphWithDict returns an empty graph interning terms into d. Sharing
// a dictionary across graphs makes IDs comparable across datasets, which
// the linking layers rely on.
func NewGraphWithDict(d *Dict) *Graph { return &Graph{dict: d} }

// Dict returns the graph's dictionary.
func (g *Graph) Dict() *Dict { return g.dict }

// Size returns the number of distinct triples.
func (g *Graph) Size() int { return g.index().Size() }

// Insert adds a triple; a duplicate is dropped when the index is built.
func (g *Graph) Insert(t Triple) {
	g.InsertIDs(g.dict.Intern(t.S), g.dict.Intern(t.P), g.dict.Intern(t.O))
}

// InsertIDs adds a triple given already interned IDs. An insert after a
// read folds the built index back into the buffer, to be rebuilt on the
// next read.
func (g *Graph) InsertIDs(s, p, o ID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if x := g.idx.Load(); x != nil {
		g.pending = make([]IDTriple, 0, x.Size()+1)
		x.ForEachMatchIDs(0, 0, 0, false, false, false, func(s, p, o ID) bool {
			g.pending = append(g.pending, IDTriple{s, p, o})
			return true
		})
		g.idx.Store(nil)
	}
	g.pending = append(g.pending, IDTriple{s, p, o})
}

// index returns the index of every inserted triple, building it on the
// first read after a mutation. Afterwards a read is one atomic load.
func (g *Graph) index() *Index {
	if x := g.idx.Load(); x != nil {
		return x
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if x := g.idx.Load(); x != nil {
		return x
	}
	x, err := OpenIndex(EncodeIndex(g.pending))
	if err != nil {
		panic("rdf: the encoder wrote an invalid index: " + err.Error())
	}
	g.pending = nil
	g.idx.Store(x)
	return x
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
	return g.CountMatch(s, p, o, true, true, true) > 0
}

// Objects returns the object IDs of triples (s, p, ·) in ascending order.
func (g *Graph) Objects(s, p ID) []ID {
	var out []ID
	g.ForEachMatchIDs(s, p, 0, true, true, false, func(_, _, o ID) bool { out = append(out, o); return true })
	return out
}

// Subjects returns the subject IDs of triples (·, p, o) in ascending order.
func (g *Graph) Subjects(p, o ID) []ID {
	var out []ID
	g.ForEachMatchIDs(0, p, o, false, true, true, func(s, _, _ ID) bool { out = append(out, s); return true })
	return out
}

// SubjectIDs returns all distinct subject IDs in ascending order.
func (g *Graph) SubjectIDs() []ID { return g.index().SubjectIDs() }

// PredicateIDs returns all distinct predicate IDs in ascending order.
func (g *Graph) PredicateIDs() []ID { return g.index().PredicateIDs() }

// Attribute is a (predicate, object) pair of an entity.
type Attribute struct {
	Pred ID
	Obj  ID
}

// Entity returns all (predicate, object) pairs of subject s, ordered by
// predicate then object ID. This is the "entity = set of attributes" view
// of Section 4.1 of the paper.
func (g *Graph) Entity(s ID) []Attribute { return g.index().Entity(s) }

// Pattern is a triple pattern; nil fields are wildcards.
type Pattern struct {
	S, P, O *Term
}

// ForEachMatch calls fn for every triple matching the pattern until fn
// returns false. Matching searches the index on the bound positions.
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
// false to stop early. A full scan comes in (s, p, o) ID order.
func (g *Graph) ForEachMatchIDs(s, p, o ID, haveS, haveP, haveO bool, fn func(s, p, o ID) bool) {
	g.index().ForEachMatchIDs(s, p, o, haveS, haveP, haveO, fn)
}

// CountMatch returns the number of triples matching the ID pattern; used
// for selectivity estimation by the query engine. It is the size of the
// pattern's record range in the index, found without enumerating it.
func (g *Graph) CountMatch(s, p, o ID, haveS, haveP, haveO bool) int {
	return g.index().CountMatch(s, p, o, haveS, haveP, haveO)
}

// Triples returns all triples. Intended for tests and small graphs.
func (g *Graph) Triples() []Triple {
	out := make([]Triple, 0, g.Size())
	g.ForEachMatch(Pattern{}, func(t Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}
