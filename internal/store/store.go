// Package store is the storage layer behind the federated query engine:
// a common TripleStore interface with two backends.
//
// The in-memory backend is rdf.Graph — three map-based indexes, the
// small-data fast path and the default. The disk backend (Segmented,
// managed per-dataset by Set) keeps each source as a stack of immutable
// sorted segment files plus a small in-memory write delta:
//
//   - A segment file holds the SPO, POS and OSP orderings of one batch
//     of triples in fixed-size pages, with a footer carrying per-page
//     first keys (two-level binary search touches only the footer and
//     the target page) and per-(s|p|o) posting counts so CountMatch
//     stays O(1)-ish for the planner on both backends.
//   - Segments are mmap'd at open, so cold start is a map + delta
//     replay, not a parse, and the OS pages data in on demand — the
//     dataset no longer has to fit in RAM.
//   - Writes go to the delta (an rdf.Graph sharing the set's
//     dictionary) and are compacted into a new segment at episode
//     boundaries. Checkpointing serializes only the delta and the
//     manifest: the segments are immutable, so a checkpoint is
//     O(delta), not O(dataset).
//
// Readers see a consistent (segments, delta) view through an atomic
// pointer; compaction builds the new generation off to the side and
// swaps it in, so queries never block on storage maintenance. Like
// rdf.Graph, a Segmented store is single-writer: concurrent reads are
// safe, mutation is not concurrent-safe with itself.
package store

import "alex/internal/rdf"

// TripleStore is the read/write surface the linking and query layers
// need from a triple store. Both *rdf.Graph (mem backend) and
// *Segmented (disk backend) satisfy it; the federation planner relies
// on CountMatch returning exactly the same values on both, which the
// cross-backend equivalence harness asserts.
type TripleStore interface {
	// Dict returns the dictionary the store's IDs are interned in.
	Dict() *rdf.Dict
	// Size returns the number of distinct triples.
	Size() int
	// InsertIDs adds a triple of already-interned IDs and reports
	// whether it was new. Writer-only; not safe concurrently with
	// itself (reads are safe concurrently with writes on Segmented,
	// and after loading on rdf.Graph).
	InsertIDs(s, p, o rdf.ID) bool
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
