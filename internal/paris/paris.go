// Package paris implements a PARIS-style probabilistic automatic linker
// (Suchanek, Abiteboul, Senellart: "PARIS: Probabilistic Alignment of
// Relations, Instances, and Schema", PVLDB 2012), used as the baseline
// that produces ALEX's initial candidate links (paper §7.1).
//
// The implementation follows the core PARIS idea: two entities are
// likely equal when they share values of relations with high inverse
// functionality (relations whose value pins down the subject), and
// equality probabilities propagate through entity-valued relations over
// a small number of fixpoint iterations. Schema (relation subsumption)
// alignment is simplified away: evidence combines relation pairs
// directly through the product of their inverse functionalities.
package paris

import (
	"sort"

	"alex/internal/links"
	"alex/internal/rdf"
	"alex/internal/store"
)

// Options configures the linker.
type Options struct {
	// Threshold is the minimum score for a link to be reported. The
	// paper uses 0.95 for links fed to ALEX.
	Threshold float64
	// Iterations is the number of fixpoint rounds propagating equality
	// through entity-valued relations (default 3).
	Iterations int
	// MaxValueFanout skips shared values appearing on more subjects
	// than this on either side, bounding the quadratic blowup caused by
	// extremely common values (default 64). Such values carry almost no
	// evidence anyway because their inverse functionality is tiny.
	MaxValueFanout int
	// Greedy11, when true (default behaviour of NewOptions), reduces
	// the scored pairs to a one-to-one matching greedily by score.
	Greedy11 bool
}

// NewOptions returns the defaults used in the paper's experiments.
func NewOptions() Options {
	return Options{Threshold: 0.95, Iterations: 3, MaxValueFanout: 64, Greedy11: true}
}

func (o *Options) fill() {
	if o.Iterations <= 0 {
		o.Iterations = 3
	}
	if o.MaxValueFanout <= 0 {
		o.MaxValueFanout = 64
	}
}

// Link aligns the given entities of g1 and g2 (which must share a
// dictionary) and returns scored candidate links with score ≥ Threshold,
// sorted by descending score.
func Link(g1, g2 store.TripleStore, entities1, entities2 []rdf.ID, opts Options) []links.Scored {
	opts.fill()
	a := &aligner{
		g1: g1, g2: g2, opts: opts,
		in1: idSet(entities1), in2: idSet(entities2),
	}
	a.prepare(entities1, entities2)
	scores := a.literalEvidence()
	for i := 1; i < opts.Iterations; i++ {
		next := a.propagate(scores)
		if !changed(scores, next) {
			scores = next
			break
		}
		scores = next
	}

	out := make([]links.Scored, 0, len(scores))
	for l, s := range scores {
		if s >= opts.Threshold {
			out = append(out, links.Scored{Link: l, Score: s})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].E1 != out[j].E1 {
			return out[i].E1 < out[j].E1
		}
		return out[i].E2 < out[j].E2
	})
	if opts.Greedy11 {
		out = greedyOneToOne(out)
	}
	return out
}

type predObj struct {
	pred rdf.ID
	subj rdf.ID
}

type aligner struct {
	g1, g2   store.TripleStore
	opts     Options
	in1, in2 map[rdf.ID]bool

	ifun1, ifun2 map[rdf.ID]float64
	// byObj maps an object ID to the (pred, subj) incidences among the
	// selected entities, per graph.
	byObj1, byObj2 map[rdf.ID][]predObj
	// entity-valued attributes for propagation
	ent1, ent2 map[rdf.ID][]rdf.Attribute
}

func idSet(ids []rdf.ID) map[rdf.ID]bool {
	m := make(map[rdf.ID]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

func (a *aligner) prepare(entities1, entities2 []rdf.ID) {
	a.ifun1, a.byObj1, a.ent1 = scanGraph(a.g1, entities1)
	a.ifun2, a.byObj2, a.ent2 = scanGraph(a.g2, entities2)
}

// scanGraph computes inverse functionalities and the object→incidence
// index restricted to the selected subjects. Inverse functionality of a
// relation r is (#distinct objects of r) / (#(s,o) pairs of r): 1 means
// a value identifies its subject uniquely.
func scanGraph(g store.TripleStore, entities []rdf.ID) (map[rdf.ID]float64, map[rdf.ID][]predObj, map[rdf.ID][]rdf.Attribute) {
	pairs := map[rdf.ID]int{}
	objs := map[rdf.ID]map[rdf.ID]struct{}{}
	byObj := map[rdf.ID][]predObj{}
	entAttrs := map[rdf.ID][]rdf.Attribute{}
	for _, s := range entities {
		for _, at := range g.Entity(s) {
			pairs[at.Pred]++
			set := objs[at.Pred]
			if set == nil {
				set = map[rdf.ID]struct{}{}
				objs[at.Pred] = set
			}
			set[at.Obj] = struct{}{}
			byObj[at.Obj] = append(byObj[at.Obj], predObj{pred: at.Pred, subj: s})
			entAttrs[s] = append(entAttrs[s], at)
		}
	}
	ifun := make(map[rdf.ID]float64, len(pairs))
	for p, n := range pairs {
		ifun[p] = float64(len(objs[p])) / float64(n)
	}
	return ifun, byObj, entAttrs
}

// literalEvidence scores entity pairs by shared object values:
// P(x≡y) = 1 − ∏ over shared values (1 − ifun1(r1)·ifun2(r2)).
func (a *aligner) literalEvidence() map[links.Link]float64 {
	disbelief := map[links.Link]float64{}
	for obj, inc1 := range a.byObj1 {
		inc2, ok := a.byObj2[obj]
		if !ok {
			continue
		}
		if len(inc1) > a.opts.MaxValueFanout || len(inc2) > a.opts.MaxValueFanout {
			continue
		}
		for _, x := range inc1 {
			for _, y := range inc2 {
				w := a.ifun1[x.pred] * a.ifun2[y.pred]
				if w <= 0 {
					continue
				}
				l := links.Link{E1: x.subj, E2: y.subj}
				d, seen := disbelief[l]
				if !seen {
					d = 1
				}
				disbelief[l] = d * (1 - w)
			}
		}
	}
	scores := make(map[links.Link]float64, len(disbelief))
	for l, d := range disbelief {
		scores[l] = 1 - d
	}
	return scores
}

// propagate adds evidence from entity-valued relations: if x has (r1,o1)
// and y has (r2,o2) with current P(o1≡o2) = p, the pair gains evidence
// ifun1(r1)·ifun2(r2)·p. One propagation round recomputes scores from
// both literal and entity evidence.
func (a *aligner) propagate(prev map[links.Link]float64) map[links.Link]float64 {
	// Index the previous matches by first endpoint for lookup.
	byE1 := map[rdf.ID][]links.Scored{}
	for l, s := range prev {
		if s >= 0.5 {
			byE1[l.E1] = append(byE1[l.E1], links.Scored{Link: l, Score: s})
		}
	}
	next := make(map[links.Link]float64, len(prev))
	for l, s := range prev {
		next[l] = s
	}
	for l := range prev {
		x, y := l.E1, l.E2
		extra := 1.0
		for _, ax := range a.ent1[x] {
			o1 := ax.Obj
			for _, m := range byE1[o1] {
				// o1 (an entity of ds1) is believed equal to m.E2
				for _, ay := range a.ent2[y] {
					if ay.Obj != m.E2 {
						continue
					}
					w := a.ifun1[ax.Pred] * a.ifun2[ay.Pred] * m.Score
					if w > 0 {
						extra *= 1 - w
					}
				}
			}
		}
		if extra < 1 {
			next[l] = 1 - (1-prev[l])*extra
		}
	}
	return next
}

func changed(a, b map[links.Link]float64) bool {
	if len(a) != len(b) {
		return true
	}
	for l, v := range a {
		if diff := b[l] - v; diff > 1e-6 || diff < -1e-6 {
			return true
		}
	}
	return false
}

// greedyOneToOne keeps the highest-scored link per entity on both sides,
// scanning in descending score order.
func greedyOneToOne(scored []links.Scored) []links.Scored {
	used1 := map[rdf.ID]bool{}
	used2 := map[rdf.ID]bool{}
	out := scored[:0]
	for _, s := range scored {
		if used1[s.E1] || used2[s.E2] {
			continue
		}
		used1[s.E1] = true
		used2[s.E2] = true
		out = append(out, s)
	}
	return out
}
