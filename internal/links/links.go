// Package links defines the link primitives shared by the linker, the
// feature space, the federation layer and the ALEX core: an owl:sameAs
// link is an ordered pair of entity IDs, the first from dataset 1 and the
// second from dataset 2.
package links

import (
	"cmp"
	"slices"

	"alex/internal/rdf"
)

// Link is a candidate owl:sameAs edge between an entity of dataset 1 and
// an entity of dataset 2. IDs are dictionary IDs of a dictionary shared
// by both datasets.
type Link struct {
	E1, E2 rdf.ID
}

// Scored is a link with a confidence score in [0, 1], as produced by an
// automatic linking algorithm.
type Scored struct {
	Link
	Score float64
}

// Set is a mutable set of links.
type Set map[Link]struct{}

// NewSet returns a set holding the given links.
func NewSet(ls ...Link) Set {
	s := make(Set, len(ls))
	for _, l := range ls {
		s[l] = struct{}{}
	}
	return s
}

// Add inserts l and reports whether it was absent.
func (s Set) Add(l Link) bool {
	if _, ok := s[l]; ok {
		return false
	}
	s[l] = struct{}{}
	return true
}

// Remove deletes l and reports whether it was present.
func (s Set) Remove(l Link) bool {
	if _, ok := s[l]; !ok {
		return false
	}
	delete(s, l)
	return true
}

// Has reports membership.
func (s Set) Has(l Link) bool {
	_, ok := s[l]
	return ok
}

// Len returns the set size.
func (s Set) Len() int { return len(s) }

// Clone returns a copy of the set.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	for l := range s {
		out[l] = struct{}{}
	}
	return out
}

// Compare orders links by (E1, E2).
func (l Link) Compare(o Link) int {
	if c := cmp.Compare(l.E1, o.E1); c != 0 {
		return c
	}
	return cmp.Compare(l.E2, o.E2)
}

// Slice returns the links in deterministic (E1, E2) order.
func (s Set) Slice() []Link {
	out := make([]Link, 0, len(s))
	for l := range s {
		out = append(out, l)
	}
	slices.SortFunc(out, Link.Compare)
	return out
}

// Intersection returns |s ∩ other|.
func (s Set) Intersection(other Set) int {
	small, large := s, other
	if len(large) < len(small) {
		small, large = large, small
	}
	n := 0
	for l := range small {
		if large.Has(l) {
			n++
		}
	}
	return n
}

// SymmetricDiff returns |s Δ other|, the number of links present in
// exactly one of the two sets. ALEX's convergence test is built on this.
func (s Set) SymmetricDiff(other Set) int {
	inter := s.Intersection(other)
	return len(s) + len(other) - 2*inter
}
