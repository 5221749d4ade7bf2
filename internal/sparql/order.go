package sparql

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"alex/internal/rdf"
)

// ORDER BY compares two terms by lexical form: numerically when
// fmt.Sscanf("%g") reads a number off the front of both, else as
// strings. That rule is older than this file and frozen with the
// golden answers, quirks included: "12abc" is 12, "nancy" is NaN and
// NaN compares equal to everything, so the order is not transitive and
// only the same stable sort over the same comparison outcomes
// reproduces a permutation. What is free to change is how often a form
// is parsed: once per row and key, on first use, instead of twice per
// comparison.

// numericKey returns the number ORDER BY reads off the front of lex,
// if any.
func numericKey(lex string) (float64, bool) {
	if !mayScanFloat(lex) {
		return 0, false
	}
	var f float64
	if _, err := fmt.Sscanf(lex, "%g", &f); err != nil {
		return 0, false
	}
	return f, true
}

// mayScanFloat is false only for strings Sscanf("%g") is certain to
// reject, which spares IRIs and names the scanner's panic-and-recover
// failure path. Sscanf skips blanks and then reads a token that
// ParseFloat can accept only if it starts with a sign, a digit, a point
// or an underscore, or is "nan" or "inf" in either case — a leading n
// or i not followed by the rest is scanned, and then rejected. Any
// other first byte, short of one that could start a multi-byte space
// (left to Sscanf), gives an empty token and an error.
func mayScanFloat(lex string) bool {
	if lex == "" {
		return false
	}
	word := func(rest string) bool { // lex[1:3] is rest, in either case
		return len(lex) >= 3 && lex[1]|0x20 == rest[0] && lex[2]|0x20 == rest[1]
	}
	switch c := lex[0]; {
	case c >= 0x80, c <= ' ':
		return true
	case c >= '0' && c <= '9', c == '+', c == '-', c == '.', c == '_':
		return true
	case c|0x20 == 'n':
		return word("an")
	case c|0x20 == 'i':
		return word("nf")
	}
	return false
}

// compareLex is the ORDER BY comparison of two lexical forms whose
// numeric keys are already known.
func compareLex(a string, af float64, aNum bool, b string, bf float64, bNum bool) int {
	if aNum && bNum {
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(a, b)
}

// compareTermsForOrder orders two terms by the ORDER BY rule (MIN and
// MAX use it too).
func compareTermsForOrder(a, b rdf.Term) int {
	af, aNum := numericKey(a.Value)
	bf, bNum := numericKey(b.Value)
	return compareLex(a.Value, af, aNum, b.Value, bf, bNum)
}

// rowOrder sorts row indices of a Solutions by ORDER BY keys, caching
// each (row, key) numeric key in num/state when a comparison first
// needs it.
type rowOrder struct {
	by    []OrderKey
	cols  []int // column of each key; -1: reads as unbound in every row
	d     *rdf.Dict
	sols  Solutions
	num   []float64
	state []uint8 // per row × key: 0 not parsed yet, else keyText or keyNumber
}

const (
	keyText uint8 = 1 + iota
	keyNumber
)

// sortRows stably sorts keep, a list of row indices of sols, by the
// ORDER BY keys. A key names a projected variable; one that is not
// projected orders nothing (every row reads as unbound).
func sortRows(by []OrderKey, projected []string, d *rdf.Dict, sols Solutions, keep []int32) {
	o := &rowOrder{
		by:    by,
		cols:  make([]int, len(by)),
		d:     d,
		sols:  sols,
		num:   make([]float64, sols.N*len(by)),
		state: make([]uint8, sols.N*len(by)),
	}
	for k, key := range by {
		o.cols[k] = -1
		if slices.Contains(projected, key.Var) {
			o.cols[k] = sols.column(key.Var)
		}
	}
	sort.SliceStable(keep, func(i, j int) bool { return o.less(keep[i], keep[j]) })
}

func (o *rowOrder) less(a, b int32) bool {
	for k := range o.by {
		al, af, aNum := o.key(a, k)
		bl, bf, bNum := o.key(b, k)
		c := compareLex(al, af, aNum, bl, bf, bNum)
		if c == 0 {
			continue
		}
		if o.by[k].Desc {
			return c > 0
		}
		return c < 0
	}
	return false
}

// key returns row's lexical form under ORDER BY key k ("" when
// unbound) and its numeric key.
func (o *rowOrder) key(row int32, k int) (lex string, f float64, isNum bool) {
	if c := o.cols[k]; c >= 0 {
		if id := o.sols.IDs[int(row)*len(o.sols.Vars)+c]; id != rdf.NoID {
			lex = o.d.Term(id).Value
		}
	}
	cell := int(row)*len(o.by) + k
	if o.state[cell] == 0 {
		o.state[cell] = keyText
		if f, ok := numericKey(lex); ok {
			o.num[cell], o.state[cell] = f, keyNumber
		}
	}
	return lex, o.num[cell], o.state[cell] == keyNumber
}
