package federation

import (
	"context"
	"slices"
	"sync"
	"time"

	"alex/internal/links"
	"alex/internal/rdf"
	"alex/internal/sparql"
)

// Scratch is the memory a query is evaluated in — evaluation state, row
// blocks, provenance arena, matcher, Finalize's tables and the Answer —
// reused from one evaluation to the next. An Answer made in a Scratch
// is valid until the Scratch evaluates again. The zero value is ready;
// a Scratch is not safe for concurrent use.
type Scratch struct {
	ec  evalCtx
	fin sparql.Scratch
	q   sparql.Query // the plan's query with this text's LIMIT and OFFSET
	ans Answer
}

// maxPooledScratch bounds, in bytes of row blocks and provenance, the
// Scratch a pool keeps; Finalize's tables index the final block's rows.
const maxPooledScratch = 256 << 10

// Reusable reports whether sc is small enough to keep for another
// evaluation: one a large answer grew is dropped, not pinned.
func (sc *Scratch) Reusable() bool {
	n := 12*cap(sc.ec.arena) + 8*cap(sc.ans.groupLinks)
	for _, b := range sc.ec.blocks {
		n += 4*cap(b.ids) + 4*cap(b.prov)
	}
	return n <= maxPooledScratch
}

// scratches recycles the Scratch of library calls, which decode first.
var scratches = sync.Pool{New: func() any { return new(Scratch) }}

func putScratch(sc *Scratch) {
	if sc.Reusable() {
		scratches.Put(sc)
	}
}

// evalCtx is the state of one evaluation: the context and deadline it
// stops at, what the stage loop and the ranker read, and the memory its
// rows live in. It belongs to the one goroutine that evaluates the query.
type evalCtx struct {
	ctx      context.Context
	deadline time.Time // zero: ctx's alone
	left     int       // steps until cancelled next looks at ctx
	// stats holds this evaluation's row counts by stage id, what the
	// ranker prices a re-entered group's stages by (adaptive.go); empty
	// when no group of the plan holds two patterns, so nothing is ranked.
	stats []stageCount
	// pats is the pattern table by stage id: plan.pats itself, or a copy
	// in patBuf whose constants are this text's (bindConsts).
	pats, patBuf []cpattern
	// exprs holds by filter id the FILTER expressions bound to this
	// text's constants; empty, or nil at an id, where the plan's serves.
	exprs []sparql.Expr
	// arena holds every row's provenance; blocks[:used] are the row
	// blocks made so far, the rest kept from earlier evaluations.
	arena  provArena
	blocks []*rowset
	used   int
	// One stage runs at a time: its matcher, the ranker's marks and a
	// FILTER's binding.
	m                matcher
	bound, scheduled []bool
	filterBinding    sparql.Binding
}

// begin readies ec to evaluate p, stopping at ctx's end or at deadline,
// and returns the row evaluation starts from: every slot unbound, no
// provenance.
func (ec *evalCtx) begin(ctx context.Context, deadline time.Time, p *plan) rowset {
	ec.ctx, ec.deadline, ec.left, ec.pats = ctx, deadline, 0, p.pats
	ec.stats = ec.stats[:0]
	if p.ranks {
		ec.stats = slices.Grow(ec.stats, len(p.pats))[:len(p.pats)]
		clear(ec.stats)
	}
	ec.exprs, ec.arena, ec.used = ec.exprs[:0], ec.arena[:0], 0
	b := ec.block(len(p.vars), 1)
	b.ids = b.ids[:b.w]
	clear(b.ids)
	b.prov = append(b.prov, 0)
	return *b
}

// block returns the evaluation's next row block, empty, with room for
// n rows of width w.
func (ec *evalCtx) block(w, n int) *rowset {
	if ec.used == len(ec.blocks) {
		ec.blocks = append(ec.blocks, new(rowset))
	}
	b := ec.blocks[ec.used]
	ec.used++
	b.w, b.ids, b.prov = w, slices.Grow(b.ids[:0], n*w), slices.Grow(b.prov[:0], n)
	return b
}

// record notes one execution of stage: in rows entered, out rows were
// emitted.
func (ec *evalCtx) record(stage, in, out int) {
	s := &ec.stats[stage]
	s.in += uint64(in)
	s.out += uint64(out)
	s.runs++
}

// expr returns the expression flt evaluates in this evaluation.
func (ec *evalCtx) expr(flt *cfilter) sparql.Expr {
	if len(ec.exprs) > 0 && ec.exprs[flt.id] != nil {
		return ec.exprs[flt.id]
	}
	return flt.expr
}

// bindConsts makes ec evaluate p with consts, the constants of a text of p's
// shape (nil: the text p was planned from). A pattern constant is
// looked up in the dictionary when the text's differs from the plan's,
// or when the plan's was absent from the dictionary when it was
// compiled; a term the dictionary lacks is rdf.NoID and matches
// nothing. A FILTER that reads constants is bound to the text's.
func (f *Federator) bindConsts(ec *evalCtx, p *plan, consts []string) {
	if consts != nil && slices.Equal(consts, p.consts) {
		consts = nil
	}
	if len(p.binds) > 0 && (consts != nil || p.unresolved) {
		ec.patBuf = append(ec.patBuf[:0], p.pats...)
		ec.pats = ec.patBuf
		for _, b := range p.binds {
			c := ec.pats[b.stage].node(b.pos)
			switch {
			case consts != nil && !b.lift.Equal(consts, p.consts):
				c.id, _ = f.dict.Lookup(b.lift.Term(consts))
			case c.id == rdf.NoID:
				c.id, _ = f.dict.Lookup(b.term)
			}
		}
	}
	if consts == nil {
		return
	}
	for _, flt := range p.filters {
		if e := sparql.BindExpr(flt.expr, consts); e != flt.expr {
			if len(ec.exprs) == 0 {
				ec.exprs = slices.Grow(ec.exprs, len(p.filters))[:len(p.filters)]
				clear(ec.exprs)
			}
			ec.exprs[flt.id] = e
		}
	}
}

// checkInterval is how many steps of evaluation — input rows entering a
// stage, rows a pattern emits — pass between two looks at the context.
const checkInterval = 1024

// cancelled counts one step of evaluation and reports whether the
// query's context is done or its deadline passed, looking on the first
// step and then once per checkInterval: an evaluation outlives its
// deadline by at most that many steps, and a query that is never
// cancelled pays a decrement per step. Once it is done the countdown is
// left run out, so every later step finds it done too.
func (ec *evalCtx) cancelled() bool {
	if ec.left--; ec.left > 0 {
		return false
	}
	if ec.err() != nil {
		return true
	}
	ec.left = checkInterval
	return false
}

// err returns ctx's error, or context.DeadlineExceeded once the
// deadline has passed.
func (ec *evalCtx) err() error {
	if err := ec.ctx.Err(); err != nil {
		return err
	}
	if !ec.deadline.IsZero() && !time.Now().Before(ec.deadline) {
		return context.DeadlineExceeded
	}
	return nil
}

// provArena holds the provenance chains of one evaluation. A row's
// provenance is an int32: 0 the empty chain, i > 0 the chain whose last
// node is arena[i-1]. Extending a chain appends nodes that point back
// at it, so rows that share an ancestry share its nodes, and the arena
// holds no pointer for the garbage collector to scan.
type provArena []provNode

type provNode struct {
	parent int32
	link   links.Link
}

// with returns chain p extended by l: p itself when it holds l, so no
// link occurs twice on a chain.
func (a *provArena) with(p int32, l links.Link) int32 {
	for q := p; q != 0; q = (*a)[q-1].parent {
		if (*a)[q-1].link == l {
			return p
		}
	}
	*a = append(*a, provNode{parent: p, link: l})
	return int32(len(*a))
}

// appendTo appends chain p's links to dst, the latest first.
func (a provArena) appendTo(dst []links.Link, p int32) []links.Link {
	for ; p != 0; p = a[p-1].parent {
		dst = append(dst, a[p-1].link)
	}
	return dst
}
