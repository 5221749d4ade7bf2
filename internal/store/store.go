// Package store is the storage layer behind the federated query engine:
// a common TripleStore interface and the segment store that persists
// it.
//
// There is one triple index, rdf.Index: the SPO, POS and OSP orderings
// of a dataset's triples in fixed-size pages, with each ordering's
// posting table — every distinct leading ID (S, P, O) with the record
// range it leads. A bound lookup is one binary search of that table,
// then searches inside the range on the remaining components, and
// CountMatch is the range's size, so the planner's statistics cost no
// scan. It has two residencies:
//
//   - In memory, rdf.Graph builds the image on the heap from the
//     triples inserted into it, on the first read after loading.
//   - On disk, Segmented (managed per dataset by Set) keeps each source
//     as one immutable segment file holding the same image. Segments
//     are mmap'd at open, so cold start is a map, not a parse, and the
//     OS pages data in on demand — the dataset does not have to fit in
//     RAM.
//
// A store is built once (Create, AddSource, InsertIDs, Compact) and
// committed by writing its manifest last. ALEX's feedback changes the
// link set, never the datasets, so nothing writes the store while it
// serves, and a committed store is safe for concurrent reads without
// locks.
package store

import "alex/internal/rdf"

// TripleStore is the read surface the linking and query layers need
// from a triple store. Both *rdf.Graph (in memory) and *Segmented (on
// disk) satisfy it by delegating every read to an rdf.Index over the
// same image bytes, so the federation planner's CountMatch values are
// the same on both by construction.
type TripleStore interface {
	// Dict returns the dictionary the store's IDs are interned in.
	Dict() *rdf.Dict
	// Size returns the number of distinct triples.
	Size() int
	// ForEachMatchIDs calls fn for every triple matching the bound
	// positions until fn returns false.
	ForEachMatchIDs(s, p, o rdf.ID, haveS, haveP, haveO bool, fn func(s, p, o rdf.ID) bool)
	// CountMatch returns the number of matching triples without
	// enumerating them; the planner's selectivity source.
	CountMatch(s, p, o rdf.ID, haveS, haveP, haveO bool) int
	// SubjectIDs returns all distinct subject IDs in ascending order.
	SubjectIDs() []rdf.ID
	// PredicateIDs returns all distinct predicate IDs in ascending order.
	PredicateIDs() []rdf.ID
	// Entity returns subject s's (predicate, object) pairs ordered by
	// predicate then object ID.
	Entity(s rdf.ID) []rdf.Attribute
}

var (
	_ TripleStore = (*rdf.Graph)(nil)
	_ TripleStore = (*Segmented)(nil)
)
