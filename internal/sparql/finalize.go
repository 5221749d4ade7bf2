package sparql

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"alex/internal/rdf"
)

// Result holds finalized query solutions in projection order. For ASK
// queries Rows is empty and Ask carries the answer.
type Result struct {
	Vars []string
	Rows []Binding
	Ask  bool
}

// Finalize applies aggregation, projection, DISTINCT, ORDER BY, OFFSET,
// and LIMIT to the raw solutions of q's WHERE clause. Producing those
// solutions is internal/federation's job: this package is the query
// language only and never touches a store.
func Finalize(q *Query, rows []Binding) (*Result, error) {
	if q.Form == FormAsk {
		return &Result{Ask: len(rows) > 0}, nil
	}
	vars := append([]string(nil), q.Vars...)
	if len(q.Aggregates) > 0 {
		agg, err := aggregate(q, rows)
		if err != nil {
			return nil, err
		}
		rows = agg
		// Projection: the grouped variables that were projected, then
		// the aggregate result names.
		for _, spec := range q.Aggregates {
			vars = append(vars, spec.As)
		}
	}
	if len(vars) == 0 {
		seen := map[string]bool{}
		collectVars(q.Where, func(v string) {
			if !seen[v] {
				seen[v] = true
				vars = append(vars, v)
			}
		})
	}

	projected := make([]Binding, 0, len(rows))
	for _, row := range rows {
		pr := make(Binding, len(vars))
		for _, v := range vars {
			if t, ok := row[v]; ok {
				pr[v] = t
			}
		}
		projected = append(projected, pr)
	}

	if q.Distinct {
		seen := map[string]bool{}
		uniq := projected[:0]
		for _, row := range projected {
			k := bindingKey(vars, row)
			if !seen[k] {
				seen[k] = true
				uniq = append(uniq, row)
			}
		}
		projected = uniq
	}

	if len(q.OrderBy) > 0 {
		sort.SliceStable(projected, func(i, j int) bool {
			for _, key := range q.OrderBy {
				c := compareTermsForOrder(projected[i][key.Var], projected[j][key.Var])
				if c == 0 {
					continue
				}
				if key.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}

	if q.Offset > 0 {
		if q.Offset >= len(projected) {
			projected = nil
		} else {
			projected = projected[q.Offset:]
		}
	}
	if q.Limit >= 0 && q.Limit < len(projected) {
		projected = projected[:q.Limit]
	}
	return &Result{Vars: vars, Rows: projected}, nil
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

// bindingKey encodes a projected row as a DISTINCT map key: per
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

func compareTermsForOrder(a, b rdf.Term) int {
	as, bs := a.Value, b.Value
	// numeric-aware ordering
	var af, bf float64
	if _, errA := fmt.Sscanf(as, "%g", &af); errA == nil {
		if _, errB := fmt.Sscanf(bs, "%g", &bf); errB == nil {
			switch {
			case af < bf:
				return -1
			case af > bf:
				return 1
			default:
				return 0
			}
		}
	}
	return strings.Compare(as, bs)
}
