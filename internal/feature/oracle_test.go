package feature

import (
	"sort"

	"alex/internal/links"
	"alex/internal/rdf"
	"alex/internal/store"
)

// everyPair is the build the product used before the θ-similarity join,
// kept, serial, as the reference for it: every pair of entities is
// visited and reduced by buildSet from dense rows of scores — one row
// per distinct dataset-1 value, one column per distinct dataset-2 value,
// each score asked of sim. The join's space must be reflect.DeepEqual.
func everyPair(g1, g2 store.TripleStore, entities1, entities2 []rdf.ID, theta float64, sim func(o1, o2 rdf.ID) float64) *Space {
	var vals []rdf.ID
	colOf := map[rdf.ID]int32{}
	attrs2 := make([][]rdf.Attribute, len(entities2))
	cols2 := make([][]int32, len(entities2))
	for i, e2 := range entities2 {
		attrs2[i] = g2.Entity(e2)
		for _, a := range attrs2[i] {
			c, ok := colOf[a.Obj]
			if !ok {
				c = int32(len(vals))
				colOf[a.Obj] = c
				vals = append(vals, a.Obj)
			}
			cols2[i] = append(cols2[i], c)
		}
	}
	memo := map[rdf.ID][]float64{}
	row := func(o1 rdf.ID) []float64 {
		if r, ok := memo[o1]; ok {
			return r
		}
		r := make([]float64, len(vals))
		for c, o2 := range vals {
			r[c] = sim(o1, o2)
		}
		memo[o1] = r
		return r
	}
	sp := &Space{
		sets:       map[links.Link]Set{},
		index:      map[Key][]scoredPair{},
		TotalPairs: len(entities1) * len(entities2),
	}
	for _, e1 := range entities1 {
		a1 := g1.Entity(e1)
		rows := make([][]float64, len(a1))
		for i, x := range a1 {
			rows[i] = row(x.Obj)
		}
		for i2, e2 := range entities2 {
			set := buildSet(a1, attrs2[i2], rows, cols2[i2], theta)
			if len(set) == 0 {
				continue
			}
			l := links.Link{E1: e1, E2: e2}
			sp.sets[l] = set
			for _, f := range set {
				sp.index[f.Key] = append(sp.index[f.Key], scoredPair{score: f.Score, link: l})
			}
		}
	}
	for _, ps := range sp.index {
		sort.Slice(ps, func(i, j int) bool {
			if ps[i].score != ps[j].score {
				return ps[i].score < ps[j].score
			}
			if ps[i].link.E1 != ps[j].link.E1 {
				return ps[i].link.E1 < ps[j].link.E1
			}
			return ps[i].link.E2 < ps[j].link.E2
		})
	}
	return sp
}

// buildSet reads the similarity matrix between the two attribute lists
// off dense rows — rows[i] is the row of a1[i]'s value, cols[j] the
// column of a2[j]'s — discards entries below θ, and reduces to the state
// feature set by keeping the maximum per row if the first entity has
// more attributes than the second, otherwise the maximum per column
// (§4.1).
func buildSet(a1, a2 []rdf.Attribute, rows [][]float64, cols []int32, theta float64) Set {
	type cell struct {
		key   Key
		score float64
	}
	var cells []cell
	for i, x := range a1 {
		row := rows[i]
		for j, y := range a2 {
			s := row[cols[j]]
			if s < theta {
				continue
			}
			cells = append(cells, cell{key: Key{P1: x.Pred, P2: y.Pred}, score: s})
		}
	}
	if len(cells) == 0 {
		return nil
	}
	// Row = dataset-1 predicate, column = dataset-2 predicate.
	groupByRow := len(a1) > len(a2)
	best := make(map[rdf.ID]cell)
	for _, c := range cells {
		g := c.key.P1
		if !groupByRow {
			g = c.key.P2
		}
		if cur, ok := best[g]; !ok || c.score > cur.score {
			best[g] = c
		}
	}
	set := make(Set, 0, len(best))
	for _, c := range best {
		set = append(set, Feature{Key: c.key, Score: c.score})
	}
	sort.Slice(set, func(i, j int) bool {
		if set[i].Key.P1 != set[j].Key.P1 {
			return set[i].Key.P1 < set[j].Key.P1
		}
		return set[i].Key.P2 < set[j].Key.P2
	})
	return set
}

// sigTable is the pairwise similarity the product used to score with —
// one pair of sorted-set merges per pair of values — kept, as it was,
// as the exact reference for the index-filled score rows: the spaces
// built either way must be reflect.DeepEqual, every score bit for bit.
// It holds the signature of every term interned in a dictionary at
// construction, indexed by rdf.ID.
type sigTable struct {
	sigs []termSig
}

func newSigTable(d *rdf.Dict) *sigTable {
	n := d.Len()
	t := &sigTable{sigs: make([]termSig, n+1)} // slot 0 reserved for NoID
	for id := 1; id <= n; id++ {
		t.sigs[id] = sigOf(d.Term(rdf.ID(id)))
	}
	return t
}

// asSim wraps the table as an Options.Sim, which makes Build ask it for
// every pair of values, one at a time.
func (t *sigTable) asSim(d *rdf.Dict) func(a, b rdf.Term) float64 {
	return func(a, b rdf.Term) float64 {
		ia, _ := d.Lookup(a)
		ib, _ := d.Lookup(b)
		return t.sim(ia, ib)
	}
}

// jaccardSorted computes |a∩b| / |a∪b| over sorted unique slices. The
// merge has no data-dependent branch — which side advances is summed
// from comparisons (b2i compiles to SETcc), not jumped on.
func jaccardSorted(a, b []uint32) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	i, j, inter := 0, 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		inter += b2i(x == y)
		i += b2i(x <= y)
		j += b2i(y <= x)
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sim mirrors similarity.SpaceSim over precomputed signatures.
func (t *sigTable) sim(o1, o2 rdf.ID) float64 {
	if o1 == o2 {
		return 1
	}
	a, b := &t.sigs[o1], &t.sigs[o2]
	switch {
	case a.kind == sigDate && b.kind == sigDate:
		d := a.num - b.num
		if d < 0 {
			d = -d
		}
		if d >= 365 {
			return 0
		}
		return 1 - d/365
	case a.kind == sigNumber && b.kind == sigNumber:
		d := a.num - b.num
		if d < 0 {
			d = -d
		}
		if d >= 10 {
			return 0
		}
		return 1 - d/10
	case a.kind == sigDate || b.kind == sigDate || a.kind == sigNumber || b.kind == sigNumber:
		return 0
	case a.kind == sigIRI != (b.kind == sigIRI):
		return 0
	default:
		if a.norm == b.norm {
			if a.norm == "" {
				return 0
			}
			return 1
		}
		tg := jaccardSorted(a.tri, b.tri)
		tk := jaccardSorted(a.tok, b.tok)
		if tk > tg {
			return tk
		}
		return tg
	}
}
