package feature

import (
	"sync"

	"alex/internal/links"
	"alex/internal/rdf"
	"alex/internal/store"
)

// Build constructs the space for the cross product of entities1 (from
// g1) and entities2 (from g2). Both graphs must share one dictionary.
//
// Construction shards entities1 across Options.Workers goroutines. Each
// worker fills shard-local sets and index maps against the shared
// read-only signature table; the shards are then merged and every index
// slice is sorted by the total (score, link) order, so the result is
// byte-identical to a serial build regardless of worker count or
// scheduling.
func Build(g1, g2 store.TripleStore, entities1, entities2 []rdf.ID, opts Options) *Space {
	opts.fill()
	sp := &Space{
		sets:       make(map[links.Link]Set),
		index:      make(map[Key][]scoredPair),
		TotalPairs: len(entities1) * len(entities2),
	}
	d := g1.Dict()

	// Pre-materialize entity attribute lists once, and number the
	// distinct dataset-2 object values densely: cols2[i][j] is the memo
	// column (see simMemo) of attrs2[i][j]'s value.
	attrs2 := make([][]rdf.Attribute, len(entities2))
	cols2 := make([][]int32, len(entities2))
	colOf := make(map[rdf.ID]int32)
	for i, e2 := range entities2 {
		attrs2[i] = g2.Entity(e2)
		cols2[i] = make([]int32, len(attrs2[i]))
		for j, a := range attrs2[i] {
			c, ok := colOf[a.Obj]
			if !ok {
				c = int32(len(colOf))
				colOf[a.Obj] = c
			}
			cols2[i][j] = c
		}
	}

	sigs := opts.Sigs
	if sigs == nil && opts.Sim == nil {
		sigs = NewSigTable(d)
	}

	workers := opts.Workers
	if workers > len(entities1) {
		workers = len(entities1)
	}
	if workers < 1 {
		workers = 1
	}

	type shard struct {
		sets  map[links.Link]Set
		index map[Key][]scoredPair
	}
	shards := make([]shard, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := shard{
				sets:  make(map[links.Link]Set),
				index: make(map[Key][]scoredPair),
			}

			// The default similarity reads the shared table; a custom
			// Sim is called on the terms (and must tolerate concurrent
			// calls). Either is memoised per pair of values, per worker.
			var sim func(o1, o2 rdf.ID) float64
			if opts.Sim == nil {
				sim = sigs.sim
			} else {
				sim = func(o1, o2 rdf.ID) float64 { return opts.Sim(d.Term(o1), d.Term(o2)) }
			}
			memo := simMemo{ncols: len(colOf), rows: make(map[rdf.ID][]float64)}
			var rows1 [][]float64

			// Round-robin sharding keeps workers balanced when entity
			// cost varies systematically along entities1.
			for i := w; i < len(entities1); i += workers {
				e1 := entities1[i]
				a1 := g1.Entity(e1)
				if len(a1) == 0 {
					continue
				}
				rows1 = rows1[:0]
				for _, x := range a1 {
					rows1 = append(rows1, memo.row(x.Obj))
				}
				for i2, e2 := range entities2 {
					set := buildSet(a1, attrs2[i2], rows1, cols2[i2], opts.Theta, sim)
					if len(set) == 0 {
						continue
					}
					l := links.Link{E1: e1, E2: e2}
					res.sets[l] = set
					for _, f := range set {
						res.index[f.Key] = append(res.index[f.Key], scoredPair{score: f.Score, link: l})
					}
				}
			}
			shards[w] = res
		}(w)
	}
	wg.Wait()

	// Merge. Shard set maps are disjoint (entities1 is partitioned), and
	// the per-key sort below is a total order, so concatenation order is
	// immaterial.
	for _, res := range shards {
		for l, set := range res.sets {
			sp.sets[l] = set
		}
		for k, ps := range res.index {
			sp.index[k] = append(sp.index[k], ps...)
		}
	}
	for k := range sp.index {
		sortPairs(sp.index[k])
	}
	return sp
}

// simMemo is one Build worker's similarity cache. sim(o1, o2) is a
// pure function of two object values, and attribute values repeat —
// categories, types, places and dates are shared by many entities — so
// scoring every entity pair attribute by attribute asks for the same
// pair of values over and over. The memo holds one row of scores per
// distinct dataset-1 value the worker has met, with one column per
// distinct dataset-2 value of the Build (numbered once, up front) and
// -1 for "not computed yet"; rows are made on first use. It pays off to
// the degree values repeat and costs rows×columns floats while Build
// runs; it is garbage when Build returns. Scores are stored as
// computed, so the space is the one an unmemoised build produces.
type simMemo struct {
	ncols int
	rows  map[rdf.ID][]float64
}

// row returns the memo row of dataset-1 value o1.
func (m *simMemo) row(o1 rdf.ID) []float64 {
	r := m.rows[o1]
	if r == nil {
		r = make([]float64, m.ncols)
		for i := range r {
			r[i] = -1
		}
		m.rows[o1] = r
	}
	return r
}
