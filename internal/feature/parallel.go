package feature

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

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
// one dictionary.
//
// The build is an exact θ-similarity join. The dataset-2 side — attribute
// lists, its distinct values numbered as columns, the holders of each
// column, and the index the built-in similarity scores from — is
// prepared once. Every distinct dataset-1 value of every partition is
// then scored once against every column, and the columns that pass θ
// are kept as its hit list. A partition's build turns each entity's hits
// into cells through the holder lists, so a pair of entities with no
// value pair that passes θ is never visited. Each partition's build is
// parallel inside (Options.Workers); partitions run one after another.
func BuildPartitions(g1, g2 store.TripleStore, parts [][]rdf.ID, entities2 []rdf.ID, opts Options) []*Space {
	opts.fill()
	t := newTarget(g1.Dict(), g2, entities2, opts.Sim)
	attrs := make([][][]rdf.Attribute, len(parts))
	hits := make(map[rdf.ID][]hit) // the hit list of every dataset-1 value
	var vals []rdf.ID              // its keys, first met first
	for pi, entities1 := range parts {
		attrs[pi] = make([][]rdf.Attribute, len(entities1))
		for k, e1 := range entities1 {
			attrs[pi][k] = g1.Entity(e1)
			for _, a := range attrs[pi][k] {
				if _, ok := hits[a.Obj]; !ok {
					hits[a.Obj] = nil
					vals = append(vals, a.Obj)
				}
			}
		}
	}
	for k, l := range t.hits(vals, opts) {
		hits[vals[k]] = l
	}
	spaces := make([]*Space, len(parts))
	for pi, entities1 := range parts {
		spaces[pi] = t.build(entities1, attrs[pi], hits, opts.Workers)
	}
	return spaces
}

// target is the dataset-2 side of a build, read-only once prepared.
type target struct {
	dict     *rdf.Dict
	entities []rdf.ID
	attrs    [][]rdf.Attribute // attrs[i] = the attributes of entities[i]
	// The distinct object values of attrs are numbered densely as
	// columns: vals[c] is the value in column c, colOf its inverse.
	vals  []rdf.ID
	colOf map[rdf.ID]int32
	// holders[holderAt[c]:holderAt[c+1]] are the attributes whose value
	// is column c's, in ascending (entity, attribute) order.
	holderAt []int32
	holders  []holder

	// A value's scores come from sim, asked once per column, or, when
	// Options.Sim is nil, from the index over vals.
	sim   func(a, b rdf.Term) float64
	index *valueIndex
}

// holder is attribute j of target entity e (positions in target.entities
// and target.attrs[e]).
type holder struct{ e, j int32 }

func newTarget(d *rdf.Dict, g2 store.TripleStore, entities2 []rdf.ID, sim func(a, b rdf.Term) float64) *target {
	t := &target{
		dict:     d,
		entities: entities2,
		attrs:    make([][]rdf.Attribute, len(entities2)),
		colOf:    make(map[rdf.ID]int32),
		sim:      sim,
	}
	var counts []int32
	for i, e2 := range entities2 {
		t.attrs[i] = g2.Entity(e2)
		for _, a := range t.attrs[i] {
			c, ok := t.colOf[a.Obj]
			if !ok {
				c = int32(len(t.vals))
				t.colOf[a.Obj] = c
				t.vals = append(t.vals, a.Obj)
				counts = append(counts, 0)
			}
			counts[c]++
		}
	}
	t.holderAt = make([]int32, len(t.vals)+1)
	for c, n := range counts {
		t.holderAt[c+1] = t.holderAt[c] + n
	}
	t.holders = make([]holder, t.holderAt[len(t.vals)])
	next := counts // each column's next free holder slot
	copy(next, t.holderAt)
	for i, a2 := range t.attrs {
		for j, a := range a2 {
			c := t.colOf[a.Obj]
			t.holders[next[c]] = holder{e: int32(i), j: int32(j)}
			next[c]++
		}
	}
	if sim == nil {
		t.index = newValueIndex(d, t.vals)
	}
	return t
}

func (t *target) holdersOf(c int32) []holder { return t.holders[t.holderAt[c]:t.holderAt[c+1]] }

// hit is a column whose value scores !(score < θ) against a dataset-1
// value.
type hit struct {
	col   int32
	score float64
}

// hits scores each value of vals against every column, once, and returns
// the hit list of vals[k] as lists[k], ascending by column. A column
// passes when !(score < θ): at θ=0 every column does, zero scores
// included. The values are shared out across opts.Workers goroutines.
func (t *target) hits(vals []rdf.ID, opts Options) [][]hit {
	lists := make([][]hit, len(vals))
	workers := max(min(opts.Workers, len(vals)), 1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			row := make([]float64, len(t.vals))
			var count scanCount
			var scratch []hit
			for k := w; k < len(vals); k += workers {
				t.scoreRow(vals[k], row, &count)
				scratch = scratch[:0]
				for c, s := range row {
					if !(s < opts.Theta) {
						scratch = append(scratch, hit{col: int32(c), score: s})
					}
				}
				clear(row)
				lists[k] = slices.Clone(scratch)
			}
		}(w)
	}
	wg.Wait()
	return lists
}

// scoreRow writes the score of dataset-1 value o1 against every column
// into row, which must arrive zeroed.
func (t *target) scoreRow(o1 rdf.ID, row []float64, count *scanCount) {
	a := t.dict.Term(o1)
	if t.sim != nil {
		for c, o2 := range t.vals {
			row[c] = t.sim(a, t.dict.Term(o2))
		}
		return
	}
	sig := sigOf(a)
	t.index.score(&sig, row, count)
	// The same term on both sides scores 1 whatever its kind — the
	// empty literal included, which otherwise matches nothing.
	if c, ok := t.colOf[o1]; ok {
		row[c] = 1
	}
}

// build constructs the space of entities1 × t.entities, attrs1[k] being
// the attributes of entities1[k] and hits the hit list of every
// dataset-1 value (read-only, shared by every partition's workers).
//
// Construction shards entities1 across workers goroutines. Each worker
// joins its entities against the shared read-only target into a
// shard-local list of kept pairs and index map; the shards are then
// merged and every index slice is sorted by the total (score, link)
// order, so the result is byte-identical to a serial build regardless
// of worker count or scheduling.
func (t *target) build(entities1 []rdf.ID, attrs1 [][]rdf.Attribute, hits map[rdf.ID][]hit, workers int) *Space {
	workers = max(min(workers, len(entities1)), 1)

	type pairSet struct {
		link links.Link
		set  Set
	}
	type shard struct {
		sets  []pairSet
		index map[Key][]scoredPair
	}
	shards := make([]shard, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := shard{index: make(map[Key][]scoredPair)}
			jn := joiner{t: t, next: make([]int32, len(t.entities))}
			// Round-robin sharding keeps workers balanced when entity
			// cost varies systematically along entities1.
			for k := w; k < len(entities1); k += workers {
				for _, p := range jn.join(attrs1[k], hits) {
					l := links.Link{E1: entities1[k], E2: t.entities[p.e]}
					res.sets = append(res.sets, pairSet{link: l, set: p.set})
					for _, f := range p.set {
						res.index[f.Key] = append(res.index[f.Key], scoredPair{score: f.Score, link: l})
					}
				}
			}
			shards[w] = res
		}(w)
	}
	wg.Wait()

	// Merge. The shards' pairs are disjoint (entities1 is partitioned),
	// so each is inserted once into one map made at its final size. The
	// index slices are copied — a slice a worker grew by appending holds
	// up to twice what it needs, and the space is kept for the life of
	// the system — and the per-key sort below is a total order, so
	// concatenation order is immaterial.
	pairs := 0
	for _, res := range shards {
		pairs += len(res.sets)
	}
	sp := &Space{
		sets:       make(map[links.Link]Set, pairs),
		index:      make(map[Key][]scoredPair, len(shards[0].index)),
		TotalPairs: len(entities1) * len(t.entities),
	}
	for _, res := range shards {
		for _, p := range res.sets {
			sp.sets[p.link] = p.set
		}
		for k, ps := range res.index {
			sp.index[k] = append(sp.index[k], ps...)
		}
	}
	// The keys' slices are disjoint, so the workers sort them side by
	// side, the longest first.
	keys := make([]Key, 0, len(sp.index))
	for k := range sp.index {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b Key) int { return len(sp.index[b]) - len(sp.index[a]) })
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := next.Add(1) - 1; n < int64(len(keys)); n = next.Add(1) - 1 {
				sortPairs(sp.index[keys[n]])
			}
		}()
	}
	wg.Wait()
	return sp
}

// cell is a value pair that passes θ: attribute i of the dataset-1
// entity against attribute j of a target entity.
type cell struct {
	i, j  int32
	score float64
}

// joiner is one build worker's scratch for joining a dataset-1 entity
// against the target.
type joiner struct {
	t *target
	// next[e] counts, then places, the cells of target entity e; it is
	// zero for every entity between joins.
	next []int32
	met  []int32 // the target entities the current join meets, first met first
	hits [][]hit // hits[i] = the hit list of attribute i's value
	cell []cell  // the current join's cells, grouped by target entity
	best Set     // the feature set being reduced
	kept []kept  // the current join's result
}

// kept is the feature set of the pair (joined entity, target entity e).
type kept struct {
	e   int32
	set Set
}

// join returns the feature set of every pair (a1's entity, target
// entity) that has at least one cell, and visits no other pair. A pair's
// cells are reduced as §4.1 says: grouped by dataset-1 predicate if a1
// has more attributes than the target entity, else by dataset-2
// predicate, each group keeping its first strictly greatest cell in
// (i, j) order; the set is ordered by (P1, P2). Each set is freshly
// allocated; the returned slice is the joiner's, valid until the next
// join.
func (jn *joiner) join(a1 []rdf.Attribute, hits map[rdf.ID][]hit) []kept {
	t := jn.t
	jn.hits = jn.hits[:0]
	jn.met = jn.met[:0]
	jn.kept = jn.kept[:0]
	n := 0
	for _, a := range a1 {
		hs := hits[a.Obj]
		jn.hits = append(jn.hits, hs)
		for _, x := range hs {
			hds := t.holdersOf(x.col)
			for _, hd := range hds {
				if jn.next[hd.e] == 0 {
					jn.met = append(jn.met, hd.e)
				}
				jn.next[hd.e]++
			}
			n += len(hds)
		}
	}
	// Counting sort of the cells by target entity: counts become start
	// offsets, then end offsets as the second pass places the cells.
	at := int32(0)
	for _, e := range jn.met {
		c := jn.next[e]
		jn.next[e] = at
		at += c
	}
	jn.cell = slices.Grow(jn.cell[:0], n)[:n]
	for i, hs := range jn.hits {
		for _, x := range hs {
			for _, hd := range t.holdersOf(x.col) {
				jn.cell[jn.next[hd.e]] = cell{i: int32(i), j: hd.j, score: x.score}
				jn.next[hd.e]++
			}
		}
	}
	from := int32(0)
	for _, e := range jn.met {
		to := jn.next[e]
		jn.next[e] = 0
		group := jn.cell[from:to]
		from = to
		// Cells arrive in i order, and within one i in column order.
		slices.SortFunc(group, func(x, y cell) int {
			return cmp.Or(cmp.Compare(x.i, y.i), cmp.Compare(x.j, y.j))
		})
		jn.kept = append(jn.kept, kept{e: e, set: jn.reduce(a1, t.attrs[e], group)})
	}
	return jn.kept
}

// reduce keeps one cell per row or per column of group (see join).
func (jn *joiner) reduce(a1, a2 []rdf.Attribute, group []cell) Set {
	byRow := len(a1) > len(a2)
	best := jn.best[:0]
	for _, c := range group {
		k := Key{P1: a1[c.i].Pred, P2: a2[c.j].Pred}
		slot := -1
		for n, f := range best {
			if byRow && f.Key.P1 == k.P1 || !byRow && f.Key.P2 == k.P2 {
				slot = n
				break
			}
		}
		switch {
		case slot < 0:
			best = append(best, Feature{Key: k, Score: c.score})
		case c.score > best[slot].Score:
			best[slot] = Feature{Key: k, Score: c.score}
		}
	}
	jn.best = best
	set := make(Set, len(best))
	copy(set, best)
	slices.SortFunc(set, func(x, y Feature) int {
		return cmp.Or(cmp.Compare(x.Key.P1, y.Key.P1), cmp.Compare(x.Key.P2, y.Key.P2))
	})
	return set
}
