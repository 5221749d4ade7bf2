package store

import (
	"fmt"

	"alex/internal/rdf"
)

// Segmented is the disk-backed TripleStore: one immutable sorted
// segment, written once when its Set commits. Before the commit it
// collects the triples to write and reads as empty; after it, it is
// read-only and safe for concurrent use. Its reads are the segment's
// rdf.Index, the index an in-memory rdf.Graph answers from.
type Segmented struct {
	set   *Set
	name  string
	seg   *Segment       // empty until the set commits
	build []rdf.IDTriple // inserted before the commit
}

// Name returns the source name the store was registered under.
func (s *Segmented) Name() string { return s.name }

// Dict returns the shared dictionary.
func (s *Segmented) Dict() *rdf.Dict { return s.set.dict }

// Size returns the number of distinct triples.
func (s *Segmented) Size() int { return s.seg.Size() }

// InsertIDs adds a triple to the build; duplicates are dropped when the
// segment is written. It panics once the set has committed: a segment
// store is written once.
func (s *Segmented) InsertIDs(sub, p, o rdf.ID) {
	if s.set.committed {
		panic(fmt.Sprintf("store: InsertIDs on source %q of a committed store", s.name))
	}
	s.build = append(s.build, rdf.IDTriple{S: sub, P: p, O: o})
}

// ForEachMatchIDs enumerates matching triples; fn returns false to
// stop.
func (s *Segmented) ForEachMatchIDs(sub, p, o rdf.ID, haveS, haveP, haveO bool, fn func(s, p, o rdf.ID) bool) {
	s.seg.ForEachMatchIDs(sub, p, o, haveS, haveP, haveO, fn)
}

// CountMatch returns the number of matching triples: the size of their
// record range, found without reading the records.
func (s *Segmented) CountMatch(sub, p, o rdf.ID, haveS, haveP, haveO bool) int {
	return s.seg.CountMatch(sub, p, o, haveS, haveP, haveO)
}

// SubjectIDs returns all distinct subject IDs in ascending order.
func (s *Segmented) SubjectIDs() []rdf.ID { return s.seg.SubjectIDs() }

// PredicateIDs returns all distinct predicate IDs in ascending order.
func (s *Segmented) PredicateIDs() []rdf.ID { return s.seg.PredicateIDs() }

// Entity returns subject sub's attributes ordered by (predicate,
// object).
func (s *Segmented) Entity(sub rdf.ID) []rdf.Attribute { return s.seg.Entity(sub) }
