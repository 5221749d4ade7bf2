package sparql

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"alex/internal/rdf"
)

// ORDER BY compares two terms by lexical form: numerically when
// fmt.Sscanf("%g") reads a number off the front of both, else as
// strings. That rule is older than this file and frozen with the
// golden answers, quirks included: "12abc" is 12, "nancy" is NaN and
// NaN compares equal to everything, so the order is not transitive and
// only the same stable sort over the same comparison outcomes
// reproduces a permutation. What is free to change is how a form is
// read and how often: once per row and key, on first use, instead of
// twice per comparison; a plain decimal by strconv.ParseFloat over the
// exact token Sscanf would read, and only the other forms by Sscanf.

// numericKey returns the number ORDER BY reads off the front of lex,
// if any.
func numericKey(lex string) (float64, bool) {
	if n := plainDecimalLen(lex); n > 0 {
		f, err := strconv.ParseFloat(lex[:n], 64)
		return f, err == nil
	}
	if !mayScanFloat(lex) {
		return 0, false
	}
	var f float64
	if _, err := fmt.Sscanf(lex, "%g", &f); err != nil {
		return 0, false
	}
	return f, true
}

// plainDecimalLen returns the length of the plain decimal lex starts
// with — a digit, more digits, then optionally a point and digits — or
// 0 when lex is not one, or when Sscanf("%g") would read past it: a
// hex prefix ("0x", "0X"), or an underscore or exponent letter after
// it. Anything else ends Sscanf's token where it ends this prefix, and
// Sscanf hands that token to ParseFloat, so parsing the prefix gives
// the same number and the same error (out of range: not a number).
func plainDecimalLen(lex string) int {
	if lex == "" || !isDigit(lex[0]) || len(lex) > 1 && lex[0] == '0' && lex[1]|0x20 == 'x' {
		return 0
	}
	i := 1
	for i < len(lex) && isDigit(lex[i]) {
		i++
	}
	if i < len(lex) && lex[i] == '.' {
		i++
		for i < len(lex) && isDigit(lex[i]) {
			i++
		}
	}
	if i < len(lex) && strings.IndexByte("_eEpP", lex[i]) >= 0 {
		return 0
	}
	return i
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

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
	case isDigit(c), c == '+', c == '-', c == '.', c == '_':
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

// rowOrder sorts row indices of a Solutions by ORDER BY keys. A cell
// (row, key) reads its lexical form from the dictionary and parses its
// numeric key when a comparison first needs it; later comparisons read
// the cell.
type rowOrder struct {
	by    []OrderKey
	cols  []int // column of each key; -1: reads as unbound in every row
	d     *rdf.Dict
	sols  Solutions
	cells []orderCell // per row × key
}

type orderCell struct {
	lex   string // "" when unbound
	num   float64
	state uint8 // 0 not read yet, else keyText or keyNumber
}

const (
	keyText uint8 = 1 + iota
	keyNumber
)

// rowOrders recycles a rowOrder and its cell table across queries. A
// table is cleared before it goes back, so one taken out reads as not
// read yet; one grown past maxPooledCells is dropped instead of pinned
// in the pool.
var rowOrders = sync.Pool{New: func() any { return new(rowOrder) }}

const maxPooledCells = 4 << 10

// sortRows stably sorts keep, a list of row indices of sols, by the
// ORDER BY keys. A key names a projected variable; one that is not
// projected orders nothing (every row reads as unbound).
func sortRows(by []OrderKey, projected []string, d *rdf.Dict, sols Solutions, keep []int32) {
	o := rowOrders.Get().(*rowOrder)
	o.by, o.d, o.sols = by, d, sols
	o.cols = o.cols[:0]
	for _, key := range by {
		col := -1
		if slices.Contains(projected, key.Var) {
			col = sols.column(key.Var)
		}
		o.cols = append(o.cols, col)
	}
	n := sols.N * len(by)
	if cap(o.cells) < n {
		o.cells = make([]orderCell, n)
	}
	o.cells = o.cells[:n]
	slices.SortStableFunc(keep, o.compare)
	if cap(o.cells) <= maxPooledCells {
		clear(o.cells)
		*o = rowOrder{cols: o.cols, cells: o.cells}
		rowOrders.Put(o)
	}
}

// compare returns a negative number exactly when row a sorts before row
// b, which is all a stable sort asks of it.
func (o *rowOrder) compare(a, b int32) int {
	for k := range o.by {
		ac, bc := o.cell(a, k), o.cell(b, k)
		c := compareLex(ac.lex, ac.num, ac.state == keyNumber, bc.lex, bc.num, bc.state == keyNumber)
		if c == 0 {
			continue
		}
		if o.by[k].Desc {
			return -c
		}
		return c
	}
	return 0
}

// cell returns row's cell under ORDER BY key k, read on first use.
func (o *rowOrder) cell(row int32, k int) *orderCell {
	c := &o.cells[int(row)*len(o.by)+k]
	if c.state == 0 {
		if col := o.cols[k]; col >= 0 {
			if id := o.sols.IDs[int(row)*len(o.sols.Vars)+col]; id != rdf.NoID {
				c.lex = o.d.Term(id).Value
			}
		}
		c.state = keyText
		if f, ok := numericKey(c.lex); ok {
			c.num, c.state = f, keyNumber
		}
	}
	return c
}
