// Package feature builds and indexes the space of candidate links that
// ALEX explores (paper §4.1-4.2). A link between two entities is
// represented by a feature set: for each pair of predicates (one from
// each entity) the similarity score of their values. Scores below a
// threshold θ are discarded, and pairs whose feature sets become empty
// are dropped from the space entirely (§6.1, "filtering to reduce the
// search space").
//
// The space answers the exploration query at the heart of ALEX's action:
// "all links whose feature (p1, p2) has a score within [lo, hi]", served
// by a per-feature sorted index in O(log n + answers).
//
// Construction is an exact θ-similarity join: each distinct dataset-1
// value is scored once against the distinct dataset-2 values (through
// valueIndex, an inverted index, or Options.Sim), and only the value
// pairs that pass θ are expanded into the entity pairs that hold them,
// so a pair with no feature is never visited. It is parallel
// (Options.Workers), and the constructed space is identical to a serial
// build. See DESIGN.md "Space construction".
package feature

import (
	"cmp"
	"runtime"
	"slices"
	"sort"

	"alex/internal/links"
	"alex/internal/rdf"
)

// Key identifies a feature: a predicate of dataset 1 paired with a
// predicate of dataset 2.
type Key struct {
	P1, P2 rdf.ID
}

// Feature is one element of a state feature set.
type Feature struct {
	Key   Key
	Score float64
}

// Set is a link's state feature set, ordered by (P1, P2).
type Set []Feature

// Score returns the score of the feature with the given key, or -1 if
// the feature is not part of the set.
func (s Set) Score(k Key) float64 {
	for _, f := range s {
		if f.Key == k {
			return f.Score
		}
	}
	return -1
}

// Keys returns the feature keys of the set, which are the actions
// available at this state (§4.2).
func (s Set) Keys() []Key {
	out := make([]Key, len(s))
	for i, f := range s {
		out[i] = f.Key
	}
	return out
}

// DefaultTheta is the paper's default feature-filtering threshold
// (§6.1).
const DefaultTheta = 0.3

// Options configures space construction.
type Options struct {
	// Theta is the similarity threshold below which feature values are
	// discarded. The zero value is an explicit θ=0: every feature of
	// every pair is kept, including zero-score ones. A negative Theta
	// means "unset" and is replaced by DefaultTheta.
	Theta float64
	// Sim compares two attribute values. When nil, similarity.SpaceSim's
	// rules are used, scored from an inverted index over the dataset-2
	// values (valueIndex), which is substantially faster for large cross
	// products. A non-nil Sim must be safe for concurrent calls when
	// Workers > 1; a build asks it once per pair of a distinct dataset-1
	// value and a distinct dataset-2 value.
	Sim func(a, b rdf.Term) float64
	// Workers is the number of goroutines Build uses (0 or negative =
	// runtime.GOMAXPROCS(0)). The constructed space is byte-identical
	// for every worker count: shard results are merged with a total
	// (score, link) order, so scheduling cannot leak into the output.
	Workers int
}

func (o *Options) fill() {
	if o.Theta < 0 {
		o.Theta = DefaultTheta
	}
	if o.Workers < 1 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
}

type scoredPair struct {
	score float64
	link  links.Link
}

// sortPairs orders index entries by score with the link as tie-breaker.
// The comparison is a total order over the entries of one feature key (a
// link occurs at most once per key), so the result is independent of
// input order — map iteration and parallel merge order cannot leak into
// the index, and FindInRange answers are stable run to run. Scores are
// compared as numbers, which is a total order because the built-in
// similarity yields no NaN.
func sortPairs(ps []scoredPair) {
	slices.SortFunc(ps, func(a, b scoredPair) int {
		switch {
		case a.score < b.score:
			return -1
		case a.score > b.score:
			return 1
		}
		return cmp.Compare(uint64(a.link.E1)<<32|uint64(a.link.E2), uint64(b.link.E1)<<32|uint64(b.link.E2))
	})
}

// Space is the (filtered) space of possible links between a set of
// dataset-1 entities and a set of dataset-2 entities.
type Space struct {
	sets  map[links.Link]Set
	index map[Key][]scoredPair // sorted ascending by (score, link)
	// TotalPairs is the unfiltered size |E1|×|E2| (Figure 5a).
	TotalPairs int
}

// FeatureSet returns the feature set of a link in the space (nil if the
// link was filtered out or never existed).
func (sp *Space) FeatureSet(l links.Link) Set { return sp.sets[l] }

// Contains reports whether the link survived filtering.
func (sp *Space) Contains(l links.Link) bool {
	_, ok := sp.sets[l]
	return ok
}

// Len returns the number of links in the filtered space (Figure 5a).
func (sp *Space) Len() int { return len(sp.sets) }

// Links returns all links in the space in unspecified order.
func (sp *Space) Links() []links.Link {
	out := make([]links.Link, 0, len(sp.sets))
	for l := range sp.sets {
		out = append(out, l)
	}
	return out
}

// FindInRange returns every link whose feature k has a score in
// [lo, hi]. This is the exploration primitive behind ALEX's actions
// (§4.2: links with similarity between sf−af and sf+af).
func (sp *Space) FindInRange(k Key, lo, hi float64) []links.Link {
	ps := sp.index[k]
	start := sort.Search(len(ps), func(i int) bool { return ps[i].score >= lo })
	var out []links.Link
	for i := start; i < len(ps) && ps[i].score <= hi; i++ {
		out = append(out, ps[i].link)
	}
	return out
}

// CountInRange returns the number of links FindInRange would return.
func (sp *Space) CountInRange(k Key, lo, hi float64) int {
	ps := sp.index[k]
	start := sort.Search(len(ps), func(i int) bool { return ps[i].score >= lo })
	end := sort.Search(len(ps), func(i int) bool { return ps[i].score > hi })
	if end < start {
		return 0
	}
	return end - start
}

// PartitionRoundRobin splits entities into n equal-size partitions in a
// round-robin fashion: the i-th entity goes to partition i mod n
// (§6.2, "equal-size partitioning").
func PartitionRoundRobin(entities []rdf.ID, n int) [][]rdf.ID {
	if n < 1 {
		n = 1
	}
	out := make([][]rdf.ID, n)
	for i, e := range entities {
		out[i%n] = append(out[i%n], e)
	}
	return out
}
