package sparql

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"alex/internal/rdf"
)

// Solutions is the raw solution sequence of a WHERE clause in
// dictionary-ID form, as internal/federation produces it: N rows of
// len(Vars) IDs each, row-major in IDs. IDs[i*len(Vars)+j] is what row
// i binds Vars[j] to; rdf.NoID leaves it unbound. Vars is the clause's
// variables in WhereVars order.
type Solutions struct {
	Vars []string
	IDs  []rdf.ID
	N    int
}

func (s Solutions) row(i int) []rdf.ID {
	w := len(s.Vars)
	return s.IDs[i*w : (i+1)*w]
}

// column returns the index of v in Vars, or -1: a variable the WHERE
// clause never mentions is unbound in every solution.
func (s Solutions) column(v string) int { return slices.Index(s.Vars, v) }

// Result holds finalized query solutions in projection order, decoded.
// For ASK queries Rows is empty and Ask carries the answer.
type Result struct {
	Vars []string
	Rows []Binding
	Ask  bool
}

// Projection is a finalized solution sequence still in dictionary-ID
// form: which input solutions survive, in output order, and which
// columns of them are projected. Nothing in it is decoded; a renderer
// reads the cells it needs through Term, or all of them through Result.
// For ASK queries it has no rows and Ask carries the answer.
type Projection struct {
	Form QueryForm
	Vars []string
	Ask  bool
	// Group and Members say which input solutions each row stands for,
	// so that a caller holding per-solution data (the federation's link
	// provenance) can carry it across projection, DISTINCT and LIMIT.
	// Row k belongs to group Group[k]; rows share a group exactly when
	// they project onto the same ID tuple, and Members[g] lists, in
	// ascending order, every input solution with that tuple — including
	// the ones DISTINCT, OFFSET or LIMIT dropped. Every row has a group;
	// both are nil only when there are no rows.
	Group   []int32
	Members [][]int32

	// Row k is solution keep[k] of sols, read through cols (-1: a
	// variable the WHERE clause never mentions); dict, the caller's
	// dictionary, resolves its IDs.
	dict *rdf.Dict
	sols Solutions
	cols []int
	keep []int32
}

// Len returns the number of rows.
func (p *Projection) Len() int { return len(p.keep) }

// Term returns what row k binds Vars[j] to; ok is false when the row
// leaves it unbound.
func (p *Projection) Term(k, j int) (t rdf.Term, ok bool) {
	c := p.cols[j]
	if c < 0 {
		return rdf.Term{}, false
	}
	id := p.sols.row(int(p.keep[k]))[c]
	if id == rdf.NoID {
		return rdf.Term{}, false
	}
	return p.dict.Term(id), true
}

// Binding decodes row k.
func (p *Projection) Binding(k int) Binding {
	b := make(Binding, len(p.Vars))
	for j, v := range p.Vars {
		if t, ok := p.Term(k, j); ok {
			b[v] = t
		}
	}
	return b
}

// Result decodes every row.
func (p *Projection) Result() *Result {
	res := &Result{Vars: slices.Clone(p.Vars), Ask: p.Ask, Rows: make([]Binding, p.Len())}
	for k := range res.Rows {
		res.Rows[k] = p.Binding(k)
	}
	return res
}

// Scratch is the memory Finalize works in, reused from one call to the
// next; a Projection reads it until the next. The zero value is ready;
// a Scratch is not safe for concurrent use.
type Scratch struct {
	cols                                []int
	keep, group, slots, of, start, flat []int32
	members                             [][]int32
	order                               rowOrder
}

// Finalize applies projection, DISTINCT, ORDER BY, OFFSET and LIMIT to
// the raw solutions of q's WHERE clause and returns the surviving rows
// as a Projection over them, working in sc. Producing the solutions is
// internal/federation's job: this package is the query language only
// and never touches a store. Everything works on row indices and
// dictionary IDs; a term is looked up in d only where the language
// compares lexical forms (DISTINCT on literals that render alike, ORDER
// BY keys). Decoding the answer is the renderer's decision. The
// Projection's Vars are q's or sols', not a copy.
func (sc *Scratch) Finalize(q *Query, d *rdf.Dict, sols Solutions) Projection {
	if q.Form == FormAsk {
		return Projection{Form: FormAsk, Ask: sols.N > 0}
	}
	vars := q.Vars
	if len(vars) == 0 {
		vars = sols.Vars
	}
	cols := zeroed(sc.cols, len(vars))
	sc.cols = cols
	for i, v := range vars {
		cols[i] = sols.column(v)
	}

	// keep holds the surviving input rows, in output order.
	keep := sc.keep[:0]
	if q.Distinct {
		canon := canonicalIDs{d: d}
		seen := make(map[string]struct{})
		var key []byte
		for i := 0; i < sols.N; i++ {
			key = appendTupleKey(key[:0], sols.row(i), cols, canon.of)
			if _, dup := seen[string(key)]; !dup {
				seen[string(key)] = struct{}{}
				keep = append(keep, int32(i))
			}
		}
	} else {
		for i := 0; i < sols.N; i++ {
			keep = append(keep, int32(i))
		}
	}
	sc.keep = keep

	if len(q.OrderBy) > 0 {
		sc.order.sortRows(q.OrderBy, vars, d, sols, keep)
	}

	if q.Offset > 0 {
		keep = keep[min(q.Offset, len(keep)):]
	}
	if q.Limit >= 0 && q.Limit < len(keep) {
		keep = keep[:q.Limit]
	}

	p := Projection{Form: q.Form, Vars: vars, dict: d, sols: sols, cols: cols, keep: keep}
	p.Group, p.Members = sc.groupByTuple(sols, cols, keep)
	return p
}

// zeroed returns n zero elements, in s's array when it holds n.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// appendTupleKey appends DISTINCT's map-key encoding of a row's
// projection: four bytes per projected variable, rdf.NoID for an
// unbound one. The width is fixed, so distinct tuples cannot collide.
func appendTupleKey(key []byte, row []rdf.ID, cols []int, id func(rdf.ID) rdf.ID) []byte {
	for _, c := range cols {
		v := rdf.NoID
		if c >= 0 {
			v = id(row[c])
		}
		key = binary.LittleEndian.AppendUint32(key, uint32(v))
	}
	return key
}

// canonicalIDs maps dictionary IDs to representatives of DISTINCT's
// equality, which is equality of the N-Triples rendering
// (Term.String()). The rendering leaves fields out — the datatype of a
// literal that is xsd:string or language-tagged, datatype and language
// of anything but a literal — so several IDs can be one value. A term
// with those fields empty is its own representative, and that, the
// common case, does no hashing.
type canonicalIDs struct {
	d    *rdf.Dict
	memo map[rdf.Term]rdf.ID // rendered forms absent from d → first ID seen
}

func (c *canonicalIDs) of(id rdf.ID) rdf.ID {
	if id == rdf.NoID {
		return id
	}
	t := c.d.Term(id)
	n := t
	switch {
	case !t.IsLiteral():
		n.Datatype, n.Lang = "", ""
	case t.Lang != "" || t.Datatype == rdf.XSDString:
		n.Datatype = ""
	}
	if n == t {
		return id
	}
	if nid, ok := c.d.Lookup(n); ok {
		return nid
	}
	if first, ok := c.memo[n]; ok {
		return first
	}
	if c.memo == nil {
		c.memo = make(map[rdf.Term]rdf.ID)
	}
	c.memo[n] = id
	return id
}

// groupByTuple computes Projection.Group and Projection.Members: the surviving
// rows are numbered by projected ID tuple in order of first appearance,
// then every input row is probed against those tuples.
func (sc *Scratch) groupByTuple(sols Solutions, cols []int, keep []int32) (group []int32, members [][]int32) {
	if len(keep) == 0 {
		return nil, nil
	}
	group = zeroed(sc.group, len(keep))
	sc.group = group
	size := bits.Len(uint(2*len(keep) - 1)) // log2 of the slots: 2×keep or more
	sc.slots = zeroed(sc.slots, 1<<size)
	t := tupleTable{sols: sols, cols: cols, keep: keep, slots: sc.slots, shift: uint(64 - size)}
	groups := int32(0)
	for k, i := range keep {
		s := t.find(i)
		if t.slots[s] == 0 {
			t.slots[s] = int32(k) + 1
			group[k] = groups
			groups++
		} else {
			group[k] = group[t.slots[s]-1]
		}
	}
	// Members in one backing array: count, then fill.
	of := zeroed(sc.of, sols.N)
	start := zeroed(sc.start, int(groups+1))
	sc.of, sc.start = of, start
	for i := range of {
		g := int32(-1)
		if s := t.find(int32(i)); t.slots[s] != 0 {
			g = group[t.slots[s]-1]
			start[g+1]++
		}
		of[i] = g
	}
	for g := 1; g < len(start); g++ {
		start[g] += start[g-1]
	}
	flat := zeroed(sc.flat, int(start[groups]))
	members = zeroed(sc.members, int(groups))
	sc.flat, sc.members = flat, members
	for g := range members {
		members[g] = flat[start[g]:start[g]:start[g+1]]
	}
	for i, g := range of {
		if g >= 0 {
			members[g] = append(members[g], int32(i))
		}
	}
	return group, members
}

// tupleTable is an open-addressed hash set of the projected ID tuples
// of keep's rows. A slot holds 1 + the position in keep of the first
// row with its tuple, or 0 when empty; the table is at least twice as
// large as keep, so a probe always ends at a match or an empty slot.
type tupleTable struct {
	sols  Solutions
	cols  []int
	keep  []int32
	slots []int32
	shift uint // 64 − log2(len(slots)): a hash's top bits pick its slot
}

// find returns the slot of row's projected tuple: the slot that holds
// it, or the empty one where it belongs.
func (t *tupleTable) find(row int32) int {
	r := t.sols.row(int(row))
	h := uint64(0)
	for _, c := range t.cols {
		if c >= 0 {
			h = (h ^ uint64(r[c])) * 0x9e3779b97f4a7c15
		}
	}
	mask := len(t.slots) - 1
	for s := int(h >> t.shift); ; s = (s + 1) & mask {
		if t.slots[s] == 0 || t.sameTuple(r, t.sols.row(int(t.keep[t.slots[s]-1]))) {
			return s
		}
	}
}

// sameTuple reports whether rows a and b project onto the same IDs.
func (t *tupleTable) sameTuple(a, b []rdf.ID) bool {
	for _, c := range t.cols {
		if c >= 0 && a[c] != b[c] {
			return false
		}
	}
	return true
}

// WhereVars returns the variables of a WHERE clause's triple patterns
// in order of first appearance — a group's own triples, then its
// OPTIONALs, then its UNIONs. This is the order SELECT * projects in
// and the column order of Solutions.
func WhereVars(g *GroupGraphPattern) []string {
	var vars []string
	seen := map[string]bool{}
	collectVars(g, func(v string) {
		if !seen[v] {
			seen[v] = true
			vars = append(vars, v)
		}
	})
	return vars
}

func collectVars(g *GroupGraphPattern, fn func(string)) {
	if g == nil {
		return
	}
	for _, tp := range g.Triples {
		for _, v := range tp.Vars() {
			fn(v)
		}
	}
	for _, o := range g.Optionals {
		collectVars(o, fn)
	}
	for _, alts := range g.Unions {
		for _, a := range alts {
			collectVars(a, fn)
		}
	}
}
