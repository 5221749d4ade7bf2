package feature

import (
	"sync"

	"alex/internal/links"
	"alex/internal/rdf"
	"alex/internal/store"
)

// Build constructs the space for the cross product of entities1 (from
// g1) and entities2 (from g2): BuildPartitions with one partition.
func Build(g1, g2 store.TripleStore, entities1, entities2 []rdf.ID, opts Options) *Space {
	return BuildPartitions(g1, g2, [][]rdf.ID{entities1}, entities2, opts)[0]
}

// BuildPartitions constructs one space per partition of the dataset-1
// entities, each against all of entities2 (§6.2). Both graphs must share
// one dictionary. The dataset-2 side — attribute lists, the numbering of
// its distinct values, and the index the built-in similarity scores
// from — is prepared once and read by every partition's build, one
// after another; each build is parallel inside (Options.Workers).
func BuildPartitions(g1, g2 store.TripleStore, parts [][]rdf.ID, entities2 []rdf.ID, opts Options) []*Space {
	opts.fill()
	t := newTarget(g1.Dict(), g2, entities2, opts.Sim)
	spaces := make([]*Space, len(parts))
	for pi, entities1 := range parts {
		spaces[pi] = t.build(g1, entities1, opts)
	}
	return spaces
}

// target is the dataset-2 side of a build, read-only once prepared.
type target struct {
	dict     *rdf.Dict
	entities []rdf.ID
	attrs    [][]rdf.Attribute // attrs[i] = the attributes of entities[i]
	// The distinct object values of attrs are numbered densely: cols[i][j]
	// is the memo column (see simMemo) of attrs[i][j]'s value, vals[c] the
	// value in column c, colOf its inverse.
	cols  [][]int32
	vals  []rdf.ID
	colOf map[rdf.ID]int32

	// A row of scores comes from sim, asked once per column, or, when
	// Options.Sim is nil, from the index over vals.
	sim   func(a, b rdf.Term) float64
	index *valueIndex
}

func newTarget(d *rdf.Dict, g2 store.TripleStore, entities2 []rdf.ID, sim func(a, b rdf.Term) float64) *target {
	t := &target{
		dict:     d,
		entities: entities2,
		attrs:    make([][]rdf.Attribute, len(entities2)),
		cols:     make([][]int32, len(entities2)),
		colOf:    make(map[rdf.ID]int32),
		sim:      sim,
	}
	for i, e2 := range entities2 {
		t.attrs[i] = g2.Entity(e2)
		t.cols[i] = make([]int32, len(t.attrs[i]))
		for j, a := range t.attrs[i] {
			c, ok := t.colOf[a.Obj]
			if !ok {
				c = int32(len(t.vals))
				t.colOf[a.Obj] = c
				t.vals = append(t.vals, a.Obj)
			}
			t.cols[i][j] = c
		}
	}
	if sim == nil {
		t.index = newValueIndex(d, t.vals)
	}
	return t
}

// build constructs the space of entities1 × t.entities.
//
// Construction shards entities1 across Options.Workers goroutines. Each
// worker fills shard-local sets and index maps, scoring against the
// shared read-only target; the shards are then merged and every index
// slice is sorted by the total (score, link) order, so the result is
// byte-identical to a serial build regardless of worker count or
// scheduling.
func (t *target) build(g1 store.TripleStore, entities1 []rdf.ID, opts Options) *Space {
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
			memo := simMemo{t: t, rows: make(map[rdf.ID][]float64)}
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
				for i2, e2 := range t.entities {
					set := buildSet(a1, t.attrs[i2], rows1, t.cols[i2], opts.Theta)
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

	// Merge. Shard set maps are disjoint (entities1 is partitioned): a
	// lone shard's is the result, several are copied into one map made
	// at its final size. The index slices are copied either way — a
	// slice a worker grew by appending holds up to twice what it needs,
	// and the space is kept for the life of the system — and the per-key
	// sort below is a total order, so concatenation order is immaterial.
	sp := &Space{
		sets:       shards[0].sets,
		index:      make(map[Key][]scoredPair, len(shards[0].index)),
		TotalPairs: len(entities1) * len(t.entities),
	}
	if len(shards) > 1 {
		n := 0
		for _, res := range shards {
			n += len(res.sets)
		}
		sp.sets = make(map[links.Link]Set, n)
		for _, res := range shards {
			for l, set := range res.sets {
				sp.sets[l] = set
			}
		}
	}
	for _, res := range shards {
		for k, ps := range res.index {
			sp.index[k] = append(sp.index[k], ps...)
		}
	}
	for k := range sp.index {
		sortPairs(sp.index[k])
	}
	return sp
}

// simMemo is one build worker's table of similarity scores. The
// similarity is a pure function of two object values, and attribute
// values repeat — categories, types, places and dates are shared by
// many entities — so scoring every entity pair attribute by attribute
// asks for the same pair of values over and over. The memo holds one row
// of scores per distinct dataset-1 value the worker has met, with one
// column per distinct dataset-2 value of the target; a row is made, and
// filled whole, the first time its value is met — every column of it
// will be read, because every dataset-1 entity meets every dataset-2
// entity. It pays off to the degree values repeat and costs
// rows×columns floats while the build runs; it is garbage when the
// build returns. Scores are stored as computed, so the space is the one
// an unmemoised build produces.
type simMemo struct {
	t     *target
	rows  map[rdf.ID][]float64
	count scanCount // scratch of the index's scoring
}

// row returns the memo row of dataset-1 value o1.
func (m *simMemo) row(o1 rdf.ID) []float64 {
	r, ok := m.rows[o1]
	if ok {
		return r
	}
	t := m.t
	r = make([]float64, len(t.vals))
	a := t.dict.Term(o1)
	if t.sim != nil {
		for c, o2 := range t.vals {
			r[c] = t.sim(a, t.dict.Term(o2))
		}
	} else {
		sig := sigOf(a)
		t.index.score(&sig, r, &m.count)
		// The same term on both sides scores 1 whatever its kind — the
		// empty literal included, which otherwise matches nothing.
		if c, ok := t.colOf[o1]; ok {
			r[c] = 1
		}
	}
	m.rows[o1] = r
	return r
}
