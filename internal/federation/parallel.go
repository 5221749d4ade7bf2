package federation

import (
	"runtime"
	"sync"

	"alex/internal/links"
	"alex/internal/rdf"
)

// workerCount resolves Options.Workers: 0 (or negative) means one
// worker per CPU.
func (o Options) workerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// rowset is a block of intermediate rows: len(used) rows of w
// dictionary IDs each, row-major in ids (row i is ids[i*w:(i+1)*w], its
// slots laid out as plan.vars; rdf.NoID is unbound), and per row the
// sameAs links its derivation has crossed so far, as a persistent chain
// that extending never copies. A block is filled by one goroutine and
// read-only once handed on, so it doubles as the arena its rows live
// in: one backing array of IDs per block, no allocation per row.
type rowset struct {
	w    int
	ids  []rdf.ID
	used []*links.Frozen
}

func (r *rowset) len() int { return len(r.used) }

func (r *rowset) row(i int) []rdf.ID { return r.ids[i*r.w : (i+1)*r.w] }

// slice returns rows [lo, hi) as a read-only view.
func (r *rowset) slice(lo, hi int) rowset {
	return rowset{w: r.w, ids: r.ids[lo*r.w : hi*r.w : hi*r.w], used: r.used[lo:hi:hi]}
}

// add appends a copy of row.
func (r *rowset) add(row []rdf.ID, used *links.Frozen) {
	r.ids = append(r.ids, row...)
	r.used = append(r.used, used)
}

func (r *rowset) addAll(o rowset) {
	r.ids = append(r.ids, o.ids...)
	r.used = append(r.used, o.used...)
}

// parallelThreshold is the minimum number of input rows worth
// fanning out; below it goroutine startup dominates the row work.
const parallelThreshold = 16

// mapRows runs one evaluation stage: fn maps a block of input rows to
// the block of rows they produce, in input order. The result is exactly
// what fn(in) alone would return: the input is split into contiguous
// chunks, one worker per chunk, each worker fills its own block, and the
// blocks are concatenated in chunk order. fn must be safe to call
// concurrently and must not retain or modify its argument. This is the
// same deterministic-merge discipline the PR 4 space build uses:
// parallel output is byte-identical to serial output by construction.
func mapRows(workers int, in rowset, fn func(chunk rowset) rowset) rowset {
	n := in.len()
	if workers <= 1 || n < parallelThreshold || n < workers {
		return fn(in)
	}

	outs := make([]rowset, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(w int, chunk rowset) {
			defer wg.Done()
			outs[w] = fn(chunk)
		}(w, in.slice(lo, hi))
	}
	wg.Wait()

	total := 0
	for i := range outs {
		total += outs[i].len()
	}
	merged := rowset{w: in.w, ids: make([]rdf.ID, 0, total*in.w), used: make([]*links.Frozen, 0, total)}
	for _, o := range outs {
		merged.addAll(o)
	}
	return merged
}
