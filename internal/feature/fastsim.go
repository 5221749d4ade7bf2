package feature

import (
	"sort"
	"time"

	"alex/internal/rdf"
	"alex/internal/similarity"
)

// termKind is how a value is compared: numbers and dates by proximity
// within a window, strings and IRIs (by local name) by the overlap of
// their trigram and token sets, and nothing across kinds.
type termKind uint8

const (
	sigString termKind = iota
	sigNumber
	sigDate
	sigIRI
)

// termSig is a term classified and tokenized once, so that scoring it
// against another never touches a string again. The built-in similarity
// (similarity.SpaceSim's rules) is a function of two signatures.
type termSig struct {
	kind termKind
	num  float64  // numeric value, or date as fractional days
	norm string   // normalized string form
	tri  []uint32 // sorted unique trigram hashes
	tok  []uint32 // sorted unique token hashes
}

var dateLayouts = []string{"2006-01-02", "2006-01-02T15:04:05", "2006"}

// sigOf returns the signature of t. A literal is a number only if its
// lexical form is a finite one (similarity.ParseNumber): "Nan" and
// "Infinity" are strings, typed or not.
func sigOf(t rdf.Term) termSig {
	raw := t.Value
	kind := sigString
	if t.IsIRI() || t.IsBlank() {
		kind = sigIRI
		raw = t.LocalName()
	} else {
		switch t.EffectiveDatatype() {
		case rdf.XSDInteger, rdf.XSDDecimal, rdf.XSDDouble:
			if v, ok := similarity.ParseNumber(raw); ok {
				return termSig{kind: sigNumber, num: v}
			}
		case rdf.XSDDate, rdf.XSDDateTime:
			if d, ok := parseAnyDate(raw); ok {
				return termSig{kind: sigDate, num: float64(d.Unix()) / 86400}
			}
		case rdf.XSDString:
			// plain literal: sniff the lexical form
			if v, ok := similarity.ParseNumber(raw); ok {
				return termSig{kind: sigNumber, num: v}
			}
			if d, ok := parseAnyDate(raw); ok {
				return termSig{kind: sigDate, num: float64(d.Unix()) / 86400}
			}
		}
	}
	norm := similarity.Normalize(raw)
	return termSig{kind: kind, norm: norm, tri: trigramHashes(norm), tok: tokenHashes(norm)}
}

func parseAnyDate(v string) (time.Time, bool) {
	for _, layout := range dateLayouts {
		if d, err := time.Parse(layout, v); err == nil {
			return d, true
		}
	}
	return time.Time{}, false
}

const fnvOffset, fnvPrime = 2166136261, 16777619

func fnvAdd(h uint32, b byte) uint32 { return (h ^ uint32(b)) * fnvPrime }

func trigramHashes(norm string) []uint32 {
	if norm == "" {
		return nil
	}
	padded := "  " + norm + " "
	out := make([]uint32, 0, len(padded))
	for i := 0; i+3 <= len(padded); i++ {
		h := uint32(fnvOffset)
		h = fnvAdd(h, padded[i])
		h = fnvAdd(h, padded[i+1])
		h = fnvAdd(h, padded[i+2])
		out = append(out, h)
	}
	return dedupSorted(out)
}

func tokenHashes(norm string) []uint32 {
	var out []uint32
	h := uint32(fnvOffset)
	inTok := false
	for i := 0; i < len(norm); i++ {
		if norm[i] == ' ' {
			if inTok {
				out = append(out, h)
				h = fnvOffset
				inTok = false
			}
			continue
		}
		h = fnvAdd(h, norm[i])
		inTok = true
	}
	if inTok {
		out = append(out, h)
	}
	return dedupSorted(out)
}

func dedupSorted(xs []uint32) []uint32 {
	if len(xs) == 0 {
		return xs
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// The proximity windows (similarity.NumericWindow) of the two kinds that
// are not compared as sets.
const (
	numberWindow = 10  // numbers: absolute difference
	dateWindow   = 365 // dates: days
)

// valueIndex is an inverted index over the signatures of a build's
// distinct dataset-2 values, which are numbered densely as columns. It
// turns "score this dataset-1 value against every column" from one pair
// of sorted-set merges per column — nearly all of which find nothing in
// common — into a walk over the posting lists of the value's own
// hashes: a column that shares no trigram and no token with the value is
// never visited and keeps the 0 its row arrives with. It is the
// overlap count of an exact set-similarity join (ScanCount), with no
// threshold inside: every score, including those below θ, is the one a
// pairwise comparison gives, bit for bit.
//
// Read-only once built, so shared without locks by the workers that
// score a build's dataset-1 values.
type valueIndex struct {
	cols []termSig // the signature of each column's value
	// tri and tok map a hash to the ascending columns whose value has
	// it; postingKey keeps IRIs and strings, which never match each
	// other, in separate key spaces.
	tri, tok map[uint64][]int32
	// numbers and dates list the columns of those kinds: a number or
	// date is compared with all of its kind, no index needed.
	numbers, dates []int32
}

func postingKey(kind termKind, hash uint32) uint64 {
	return uint64(kind)<<32 | uint64(hash)
}

// newValueIndex indexes vals, column c holding the value vals[c].
func newValueIndex(d *rdf.Dict, vals []rdf.ID) *valueIndex {
	ix := &valueIndex{
		cols: make([]termSig, len(vals)),
		tri:  make(map[uint64][]int32),
		tok:  make(map[uint64][]int32),
	}
	for i, v := range vals {
		c := int32(i)
		s := sigOf(d.Term(v))
		ix.cols[c] = s
		switch s.kind {
		case sigNumber:
			ix.numbers = append(ix.numbers, c)
		case sigDate:
			ix.dates = append(ix.dates, c)
		default:
			for _, h := range s.tri {
				k := postingKey(s.kind, h)
				ix.tri[k] = append(ix.tri[k], c)
			}
			for _, h := range s.tok {
				k := postingKey(s.kind, h)
				ix.tok[k] = append(ix.tok[k], c)
			}
		}
	}
	return ix
}

// overlap counts the trigram and token hashes a column's value shares
// with the value being scored.
type overlap struct{ tri, tok int32 }

// scanCount is one worker's scratch for scoring values against a
// valueIndex: a counter per column, all zero between calls, and the
// columns the current call has touched. The zero value is ready to use.
type scanCount struct {
	n       []overlap
	touched []int32
}

// jaccard is |a∩b| / |a∪b| from the intersection and the two set sizes;
// two empty sets score 0.
func jaccard(inter int32, na, nb int) float64 {
	if inter == 0 {
		return 0
	}
	return float64(inter) / float64(na+nb-int(inter))
}

// score writes the similarity of the value with signature s to every
// column's value into row, which must arrive zeroed.
func (ix *valueIndex) score(s *termSig, row []float64, sc *scanCount) {
	switch s.kind {
	case sigNumber:
		for _, c := range ix.numbers {
			row[c] = similarity.NumericWindow(s.num, ix.cols[c].num, numberWindow)
		}
		return
	case sigDate:
		for _, c := range ix.dates {
			row[c] = similarity.NumericWindow(s.num, ix.cols[c].num, dateWindow)
		}
		return
	}
	if sc.n == nil {
		sc.n = make([]overlap, len(ix.cols))
	}
	for _, h := range s.tri {
		for _, c := range ix.tri[postingKey(s.kind, h)] {
			if sc.n[c] == (overlap{}) {
				sc.touched = append(sc.touched, c)
			}
			sc.n[c].tri++
		}
	}
	for _, h := range s.tok {
		for _, c := range ix.tok[postingKey(s.kind, h)] {
			if sc.n[c] == (overlap{}) {
				sc.touched = append(sc.touched, c)
			}
			sc.n[c].tok++
		}
	}
	for _, c := range sc.touched {
		n, col := sc.n[c], &ix.cols[c]
		sc.n[c] = overlap{}
		row[c] = max(jaccard(n.tri, len(s.tri), len(col.tri)), jaccard(n.tok, len(s.tok), len(col.tok)))
	}
	sc.touched = sc.touched[:0]
}
