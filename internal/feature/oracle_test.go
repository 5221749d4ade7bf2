package feature

import "alex/internal/rdf"

// sigTable is the pairwise similarity the product used to score with —
// one pair of sorted-set merges per pair of values — kept, as it was,
// as the exact reference for the index-filled memo rows: the spaces
// built either way must be reflect.DeepEqual, every score bit for bit.
// It holds the signature of every term interned in a dictionary at
// construction, indexed by rdf.ID.
type sigTable struct {
	sigs []termSig
}

func newSigTable(d *rdf.Dict) *sigTable {
	n := d.Len()
	t := &sigTable{sigs: make([]termSig, n+1)} // slot 0 reserved for NoID
	for id := 1; id <= n; id++ {
		t.sigs[id] = sigOf(d.Term(rdf.ID(id)))
	}
	return t
}

// asSim wraps the table as an Options.Sim, which makes Build ask it for
// every pair of values, one at a time.
func (t *sigTable) asSim(d *rdf.Dict) func(a, b rdf.Term) float64 {
	return func(a, b rdf.Term) float64 {
		ia, _ := d.Lookup(a)
		ib, _ := d.Lookup(b)
		return t.sim(ia, ib)
	}
}

// jaccardSorted computes |a∩b| / |a∪b| over sorted unique slices. The
// merge has no data-dependent branch — which side advances is summed
// from comparisons (b2i compiles to SETcc), not jumped on.
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
func (t *sigTable) sim(o1, o2 rdf.ID) float64 {
	if o1 == o2 {
		return 1
	}
	a, b := &t.sigs[o1], &t.sigs[o2]
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
