package feature

import (
	"sort"
	"strconv"
	"time"

	"alex/internal/rdf"
	"alex/internal/similarity"
)

// SigTable is a precomputed term-signature table: a dense array indexed
// by rdf.ID (the dictionary assigns dense IDs) holding, for every
// interned term, its classification and tokenization. It is the fast
// path behind space construction when Options.Sim is nil: every term is
// classified and tokenized exactly once, so the per-pair cost during
// construction is two sorted array intersections instead of repeated
// string processing, with no map lookups in the inner loop.
//
// A SigTable is read-only after construction and therefore safe to
// share between the worker goroutines of one Build and across the
// Builds of several partitions, as long as they all use the dictionary
// the table was built from. Terms interned after construction are not
// covered; Build panics (index out of range) rather than silently
// degrading.
type SigTable struct {
	sigs []termSig
}

type termKind uint8

const (
	sigString termKind = iota
	sigNumber
	sigDate
	sigIRI
)

type termSig struct {
	kind termKind
	num  float64  // numeric value, or date as fractional days
	norm string   // normalized string form
	tri  []uint32 // sorted unique trigram hashes
	tok  []uint32 // sorted unique token hashes
}

// NewSigTable classifies and tokenizes every term currently interned in
// d in one pass. Cost is linear in the dictionary; see DESIGN.md
// "Shared signature table".
func NewSigTable(d *rdf.Dict) *SigTable {
	n := d.Len()
	t := &SigTable{sigs: make([]termSig, n+1)} // slot 0 reserved for NoID
	for id := 1; id <= n; id++ {
		buildSig(d.Term(rdf.ID(id)), &t.sigs[id])
	}
	return t
}

// Len returns the number of signatures in the table.
func (t *SigTable) Len() int { return len(t.sigs) - 1 }

func (t *SigTable) sig(id rdf.ID) *termSig { return &t.sigs[id] }

var dateLayouts = []string{"2006-01-02", "2006-01-02T15:04:05", "2006"}

// buildSig fills s with the signature of t. Writing into caller-owned
// storage keeps the dense table a single allocation.
func buildSig(t rdf.Term, s *termSig) {
	raw := t.Value
	if t.IsIRI() || t.IsBlank() {
		s.kind = sigIRI
		raw = t.LocalName()
	} else {
		switch t.EffectiveDatatype() {
		case rdf.XSDInteger, rdf.XSDDecimal, rdf.XSDDouble:
			if v, err := strconv.ParseFloat(raw, 64); err == nil {
				s.kind = sigNumber
				s.num = v
				return
			}
		case rdf.XSDDate, rdf.XSDDateTime:
			if d, ok := parseAnyDate(raw); ok {
				s.kind = sigDate
				s.num = float64(d.Unix()) / 86400
				return
			}
		case rdf.XSDString:
			// plain literal: sniff the lexical form
			if v, err := strconv.ParseFloat(raw, 64); err == nil {
				s.kind = sigNumber
				s.num = v
				return
			}
			if d, ok := parseAnyDate(raw); ok {
				s.kind = sigDate
				s.num = float64(d.Unix()) / 86400
				return
			}
		}
	}
	s.norm = similarity.Normalize(raw)
	s.tri = trigramHashes(s.norm)
	s.tok = tokenHashes(s.norm)
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

// jaccardSorted computes |a∩b| / |a∪b| over sorted unique slices. The
// merge has no data-dependent branch — which side advances is summed
// from comparisons (b2i compiles to SETcc), not jumped on — because it
// dominates feature-space construction and a branchy loop's speed
// swung 10-15 % with where the linker happened to place it.
func jaccardSorted(a, b []uint32) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	i, j, inter := 0, 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		inter += b2i(x == y)
		i += b2i(x <= y)
		j += b2i(y <= x)
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sim mirrors similarity.SpaceSim over precomputed signatures.
func (t *SigTable) sim(o1, o2 rdf.ID) float64 {
	if o1 == o2 {
		return 1
	}
	a, b := t.sig(o1), t.sig(o2)
	switch {
	case a.kind == sigDate && b.kind == sigDate:
		d := a.num - b.num
		if d < 0 {
			d = -d
		}
		if d >= 365 {
			return 0
		}
		return 1 - d/365
	case a.kind == sigNumber && b.kind == sigNumber:
		d := a.num - b.num
		if d < 0 {
			d = -d
		}
		if d >= 10 {
			return 0
		}
		return 1 - d/10
	case a.kind == sigDate || b.kind == sigDate || a.kind == sigNumber || b.kind == sigNumber:
		return 0
	case a.kind == sigIRI != (b.kind == sigIRI):
		return 0
	default:
		if a.norm == b.norm {
			if a.norm == "" {
				return 0
			}
			return 1
		}
		tg := jaccardSorted(a.tri, b.tri)
		tk := jaccardSorted(a.tok, b.tok)
		if tk > tg {
			return tk
		}
		return tg
	}
}
