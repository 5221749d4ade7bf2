package store

import (
	"sort"

	"alex/internal/rdf"
)

type triple struct{ s, p, o rdf.ID }

// oracle is the reference the store's reads are judged against: the
// distinct input triples, searched by a linear scan. It shares no code
// with the sorted index under test, so it cannot agree with a bug in
// it.
type oracle []triple

// oracleOf returns ts without duplicates, in input order.
func oracleOf(ts []triple) oracle {
	seen := make(map[triple]bool, len(ts))
	var out oracle
	for _, t := range ts {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// Size returns the number of distinct triples.
func (or oracle) Size() int { return len(or) }

// ForEachMatchIDs calls fn for every triple whose bound positions
// equal s, p, o, in input order, until fn returns false.
func (or oracle) ForEachMatchIDs(s, p, o rdf.ID, haveS, haveP, haveO bool, fn func(s, p, o rdf.ID) bool) {
	for _, t := range or {
		if (!haveS || t.s == s) && (!haveP || t.p == p) && (!haveO || t.o == o) && !fn(t.s, t.p, t.o) {
			return
		}
	}
}

// CountMatch counts the triples ForEachMatchIDs would yield.
func (or oracle) CountMatch(s, p, o rdf.ID, haveS, haveP, haveO bool) int {
	n := 0
	or.ForEachMatchIDs(s, p, o, haveS, haveP, haveO, func(_, _, _ rdf.ID) bool { n++; return true })
	return n
}

// SubjectIDs returns the distinct subjects in ascending order.
func (or oracle) SubjectIDs() []rdf.ID { return or.distinct(func(t triple) rdf.ID { return t.s }) }

// PredicateIDs returns the distinct predicates in ascending order.
func (or oracle) PredicateIDs() []rdf.ID { return or.distinct(func(t triple) rdf.ID { return t.p }) }

func (or oracle) distinct(pos func(triple) rdf.ID) []rdf.ID {
	seen := map[rdf.ID]bool{}
	var out []rdf.ID
	for _, t := range or {
		if id := pos(t); !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Entity returns s's (predicate, object) pairs ordered by predicate
// then object.
func (or oracle) Entity(s rdf.ID) []rdf.Attribute {
	var out []rdf.Attribute
	or.ForEachMatchIDs(s, 0, 0, true, false, false, func(_, p, o rdf.ID) bool {
		out = append(out, rdf.Attribute{Pred: p, Obj: o})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		return out[i].Pred < out[j].Pred || out[i].Pred == out[j].Pred && out[i].Obj < out[j].Obj
	})
	return out
}
