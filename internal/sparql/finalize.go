package sparql

import (
	"encoding/binary"
	"slices"
	"strings"

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
	// the ones DISTINCT, OFFSET or LIMIT dropped. Both are nil for
	// aggregate queries, whose rows stand for whole GROUP BY groups.
	Group   []int32
	Members [][]int32

	// Row k is solution keep[k] of sols, read through cols (-1: a
	// variable the WHERE clause never mentions); dict resolves its IDs —
	// the caller's dictionary, or a private one holding the computed
	// terms of an aggregate query.
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
	res := &Result{Vars: p.Vars, Ask: p.Ask, Rows: make([]Binding, p.Len())}
	for k := range res.Rows {
		res.Rows[k] = p.Binding(k)
	}
	return res
}

// Finalize applies aggregation, projection, DISTINCT, ORDER BY, OFFSET,
// and LIMIT to the raw solutions of q's WHERE clause and returns the
// surviving rows as a Projection over them. Producing the solutions is
// internal/federation's job: this package is the query language only
// and never touches a store. Everything works on row indices and
// dictionary IDs; a term is looked up in d only where the language
// compares lexical forms (DISTINCT on literals that render alike, ORDER
// BY keys, aggregates). Decoding the answer is the renderer's decision.
func Finalize(q *Query, d *rdf.Dict, sols Solutions) (Projection, error) {
	if q.Form == FormAsk {
		return Projection{Form: FormAsk, Ask: sols.N > 0}, nil
	}
	vars := append([]string(nil), q.Vars...)
	grouped := len(q.Aggregates) > 0
	if grouped {
		agg, err := aggregate(q, sols.bindings(d))
		if err != nil {
			return Projection{}, err
		}
		// Projection: the grouped variables that were projected, then
		// the aggregate result names. Aggregate values are computed, not
		// stored, terms: the grouped rows continue as ID rows over a
		// private dictionary.
		names := append([]string(nil), q.GroupBy...)
		for _, spec := range q.Aggregates {
			names = append(names, spec.As)
			vars = append(vars, spec.As)
		}
		d = rdf.NewDict()
		sols = encodeBindings(d, names, agg)
	}
	if len(vars) == 0 {
		vars = append(vars, sols.Vars...)
	}
	cols := make([]int, len(vars))
	for i, v := range vars {
		cols[i] = sols.column(v)
	}

	// keep holds the surviving input rows, in output order.
	keep := make([]int32, 0, sols.N)
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

	if len(q.OrderBy) > 0 {
		sortRows(q.OrderBy, vars, d, sols, keep)
	}

	if q.Offset > 0 {
		if q.Offset >= len(keep) {
			keep = nil
		} else {
			keep = keep[q.Offset:]
		}
	}
	if q.Limit >= 0 && q.Limit < len(keep) {
		keep = keep[:q.Limit]
	}

	p := Projection{Form: q.Form, Vars: vars, dict: d, sols: sols, cols: cols, keep: keep}
	if !grouped {
		p.Group, p.Members = groupByTuple(sols, cols, keep)
	}
	return p, nil
}

// bindings decodes every solution; only aggregation needs that.
func (s Solutions) bindings(d *rdf.Dict) []Binding {
	out := make([]Binding, s.N)
	for i := range out {
		b := make(Binding, len(s.Vars))
		for j, id := range s.row(i) {
			if id != rdf.NoID {
				b[s.Vars[j]] = d.Term(id)
			}
		}
		out[i] = b
	}
	return out
}

// encodeBindings is the inverse of Solutions.bindings, interning the
// rows' terms into d.
func encodeBindings(d *rdf.Dict, vars []string, rows []Binding) Solutions {
	s := Solutions{Vars: vars, N: len(rows), IDs: make([]rdf.ID, 0, len(rows)*len(vars))}
	for _, b := range rows {
		for _, v := range vars {
			id := rdf.NoID
			if t, ok := b[v]; ok {
				id = d.Intern(t)
			}
			s.IDs = append(s.IDs, id)
		}
	}
	return s
}

// appendTupleKey appends the map-key encoding of a row's projection:
// four bytes per projected variable, rdf.NoID for an unbound one. The
// width is fixed, so distinct tuples cannot collide.
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

func sameID(id rdf.ID) rdf.ID { return id }

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
func groupByTuple(sols Solutions, cols []int, keep []int32) (group []int32, members [][]int32) {
	if len(keep) == 0 {
		return nil, nil
	}
	group = make([]int32, len(keep))
	if sols.N == 1 {
		return group, [][]int32{{0}}
	}
	index := make(map[string]int32, len(keep))
	var key []byte
	for k, i := range keep {
		key = appendTupleKey(key[:0], sols.row(int(i)), cols, sameID)
		g, ok := index[string(key)]
		if !ok {
			g = int32(len(index))
			index[string(key)] = g
		}
		group[k] = g
	}
	// Members in one backing array: count, then fill.
	of := make([]int32, sols.N)
	start := make([]int32, len(index)+1)
	for i := range of {
		key = appendTupleKey(key[:0], sols.row(i), cols, sameID)
		g, ok := index[string(key)]
		if !ok {
			g = -1
		} else {
			start[g+1]++
		}
		of[i] = g
	}
	for g := 1; g < len(start); g++ {
		start[g] += start[g-1]
	}
	flat := make([]int32, start[len(index)])
	members = make([][]int32, len(index))
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

// bindingKey encodes the vars of a decoded row as a grouping key: per
// variable, 0x00 when unbound, else 0x01 and the length-prefixed
// rendering of the term. A separator alone cannot tell rows apart when
// a term contains the separator byte.
func bindingKey(vars []string, b Binding) string {
	var sb strings.Builder
	var n [binary.MaxVarintLen64]byte
	for _, v := range vars {
		t, ok := b[v]
		if !ok {
			sb.WriteByte(0x00)
			continue
		}
		s := t.String()
		sb.WriteByte(0x01)
		sb.Write(n[:binary.PutUvarint(n[:], uint64(len(s)))])
		sb.WriteString(s)
	}
	return sb.String()
}
