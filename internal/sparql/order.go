package sparql

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

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

// rowOrder sorts row indices of a Solutions by ORDER BY keys. Each
// cell (row, key) is read once before the sort: its lexical form from
// the dictionary and its numeric key; comparisons read the cells.
type rowOrder struct {
	by    []OrderKey
	cells []orderCell // per row × key
	pairs []prefixRow // the prefix sort's (first-key prefix, row) pairs
}

type orderCell struct {
	lex   string // "" when unbound
	num   float64
	isNum bool
}

// prefixRow is a row under the prefix sort: its first key's prefix,
// inverted for a descending key, and the row.
type prefixRow struct {
	prefix uint64
	row    int32
}

// maxPooledCells bounds the cell table and pair buffer a Scratch keeps
// for the next ORDER BY. A table is cleared after its sort, so it pins
// no lexical form; one grown past the bound is dropped instead of kept
// in a Scratch a pool may hold.
const maxPooledCells = 4 << 10

// sortRows stably sorts keep, an ascending list of row indices of sols,
// by the ORDER BY keys. A key names a projected variable; one that is
// not projected orders nothing (every row reads as unbound).
//
// When each key's cells are of one class — all numbers, none NaN, or
// all text (unbound and IRIs included) — the comparison is a strict
// weak order, so the stable sort's permutation is the one that orders
// by it and then by row index. That sort runs on (prefix, row) pairs,
// where the prefix orders the first key's cells as the comparison
// does; only rows with equal prefixes are compared key by key. Any
// other input — where NaN or a number beside text makes the comparison
// intransitive, and the permutation depends on the algorithm's every
// step — takes the stable sort itself.
func (o *rowOrder) sortRows(by []OrderKey, projected []string, d *rdf.Dict, sols Solutions, keep []int32) {
	if len(keep) < 2 {
		return
	}
	o.by = by
	o.cells = slices.Grow(o.cells[:0], sols.N*len(by))[:sols.N*len(by)]
	oneClass := true
	for k, key := range by {
		col := -1
		if slices.Contains(projected, key.Var) {
			col = sols.column(key.Var)
		}
		var text, number bool
		for _, row := range keep {
			c := &o.cells[int(row)*len(by)+k]
			c.lex = ""
			if col >= 0 {
				if id := sols.IDs[int(row)*len(sols.Vars)+col]; id != rdf.NoID {
					c.lex = d.Term(id).Value
				}
			}
			c.num, c.isNum = numericKey(c.lex)
			switch {
			case !c.isNum:
				text = true
			case math.IsNaN(c.num):
				oneClass = false
			default:
				number = true
			}
		}
		oneClass = oneClass && !(text && number)
	}
	if oneClass {
		o.pairs = o.pairs[:0]
		skip := o.sharedPrefix(keep)
		for _, row := range keep {
			o.pairs = append(o.pairs, prefixRow{o.prefix(row, skip), row})
		}
		slices.SortFunc(o.pairs, o.comparePairs)
		for i, p := range o.pairs {
			keep[i] = p.row
		}
	} else {
		slices.SortStableFunc(keep, o.compare)
	}
	clear(o.cells)
	*o = rowOrder{cells: o.cells, pairs: o.pairs}
	if cap(o.cells) > maxPooledCells || cap(o.pairs) > maxPooledCells {
		*o = rowOrder{}
	}
}

// sharedPrefix returns how many leading bytes the first key's cells of
// keep's rows share when they are text, else 0. Texts that share a
// prefix compare as what follows it, so prefix skips it: an IRI key's
// first eight bytes would be its scheme and host.
func (o *rowOrder) sharedPrefix(keep []int32) int {
	w := len(o.by)
	ref := o.cells[int(keep[0])*w]
	if ref.isNum {
		return 0
	}
	n := len(ref.lex)
	for _, row := range keep[1:] {
		lex := o.cells[int(row)*w].lex
		if strings.HasPrefix(lex, ref.lex[:n]) {
			continue
		}
		i := 0
		for i < min(n, len(lex)) && lex[i] == ref.lex[i] {
			i++
		}
		n = i
	}
	return n
}

// prefix returns 8 bytes of row's first-key cell that order as compare
// orders the key's cells, given they are of one class: a number's IEEE
// bits with the sign flipped (and every other bit too when negative,
// so larger magnitudes sort lower), or the eight bytes of a text after
// its first skip, zero-padded, big-endian. Equal cells get equal
// prefixes; so may unequal texts, which comparePairs then compares in
// full. A descending key inverts the prefix.
func (o *rowOrder) prefix(row int32, skip int) uint64 {
	c := &o.cells[int(row)*len(o.by)]
	var p uint64
	if c.isNum {
		f := c.num
		if f == 0 {
			f = 0 // -0 compares equal to 0, so it gets 0's prefix
		}
		p = math.Float64bits(f)
		if p>>63 == 1 {
			p = ^p
		} else {
			p |= 1 << 63
		}
	} else {
		var b [8]byte
		copy(b[:], c.lex[skip:])
		p = binary.BigEndian.Uint64(b[:])
	}
	if o.by[0].Desc {
		return ^p
	}
	return p
}

// comparePairs orders two rows by first-key prefix, then by compare,
// then by row index: the stable sort's order, when compare is a strict
// weak order.
func (o *rowOrder) comparePairs(a, b prefixRow) int {
	if c := cmp.Compare(a.prefix, b.prefix); c != 0 {
		return c
	}
	if c := o.compare(a.row, b.row); c != 0 {
		return c
	}
	return cmp.Compare(a.row, b.row)
}

// compare returns a negative number exactly when row a sorts before row
// b, which is all a stable sort asks of it.
func (o *rowOrder) compare(a, b int32) int {
	w := len(o.by)
	ac, bc := o.cells[int(a)*w:][:w], o.cells[int(b)*w:][:w]
	for k := range ac {
		c := compareLex(ac[k].lex, ac[k].num, ac[k].isNum, bc[k].lex, bc[k].num, bc[k].isNum)
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
