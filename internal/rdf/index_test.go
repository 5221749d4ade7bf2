package rdf

import (
	"math"
	"os"
	"testing"
)

// TestIndexBoundMasks: a lookup's leading ID passes the section's
// bitmap exactly when the posting table holds it, and bounds then gives
// the record range a linear scan finds, at the IDs where a bitmap can
// be wrong — the first and last leading IDs, one between two of them,
// ones above all of them (in the last word, past it, and the largest
// ID) — on a heap image and on the store's fixture segment. The zero
// Index has no bitmaps and answers every probe empty.
func TestIndexBoundMasks(t *testing.T) {
	// Every section leads with IDs 3, 64, 130 and 200: gaps below,
	// between and above them, on both sides of a word boundary.
	ids := []ID{3, 64, 130, 200}
	var ts []IDTriple
	for _, s := range ids {
		for _, p := range ids {
			for _, o := range ids {
				ts = append(ts, IDTriple{s, p, o})
			}
		}
	}
	heap, err := OpenIndex(EncodeIndex(ts))
	if err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile("../store/testdata/fixture.seg")
	if err != nil {
		t.Fatal(err)
	}
	fixture, err := OpenIndex(seg)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		x       *Index
		between bool // every section has a gap between two leading IDs
	}{{"heap", heap, true}, {"fixture.seg", fixture, false}} {
		t.Run(tc.name, func(t *testing.T) {
			for sec := 0; sec < 3; sec++ {
				ids := tc.x.postingIDs(sec)
				if len(ids) < 2 {
					t.Fatalf("section %d leads with %d IDs; the probes need two", sec, len(ids))
				}
				first, last := uint32(ids[0]), uint32(ids[len(ids)-1])
				probes := []uint32{first, last, last + 1, last | 63, (last | 63) + 1, math.MaxUint32}
				gap := false
				for i := 1; i < len(ids); i++ {
					if ids[i] > ids[i-1]+1 {
						probes, gap = append(probes, uint32(ids[i-1])+1), true
						break
					}
				}
				if tc.between && !gap {
					t.Fatalf("section %d has no gap between leading IDs", sec)
				}
				for _, id := range probes {
					assertBoundsMatchScan(t, tc.x, sec, id)
				}
			}
		})
	}

	t.Run("zero", func(t *testing.T) {
		var z Index
		for sec := 0; sec < 3; sec++ {
			for _, id := range []uint32{0, 1, 3, 64, math.MaxUint32} {
				for k := 1; k <= 3; k++ {
					if lo, hi := z.bounds(sec, [3]uint32{id, id, id}, k); lo != hi {
						t.Errorf("zero Index: section %d, ID %d, k=%d: range [%d, %d)", sec, id, k, lo, hi)
					}
				}
			}
		}
		if n := z.CountMatch(3, 3, 3, true, false, false); n != 0 {
			t.Errorf("zero Index counts %d triples", n)
		}
	})
}

// assertBoundsMatchScan checks x's bitmap and bounds for leading ID id
// of section sec against a scan of every record: bounds on the first
// one, two and three components of a record led by id (or of id alone
// when none is) give the records sharing that prefix.
func assertBoundsMatchScan(t *testing.T, x *Index, sec int, id uint32) {
	t.Helper()
	key := [3]uint32{id}
	present := false
	for i := 0; i < x.count; i++ {
		if r := x.key(sec, i); r[0] == id {
			key, present = r, true
			break
		}
	}
	if got := x.leads(sec, id); got != present {
		t.Errorf("section %d: leads(%d) = %v, a scan says %v", sec, id, got, present)
	}
	for k := 1; k <= 3; k++ {
		lo, hi := -1, -1
		for i := 0; i < x.count; i++ {
			r := x.key(sec, i)
			if r[0] == key[0] && (k < 2 || r[1] == key[1]) && (k < 3 || r[2] == key[2]) {
				if lo < 0 {
					lo = i
				}
				hi = i + 1
			}
		}
		gotLo, gotHi := x.bounds(sec, key, k)
		if lo < 0 {
			if gotLo != gotHi {
				t.Errorf("section %d, key %v, k=%d: range [%d, %d), want empty", sec, key, k, gotLo, gotHi)
			}
			continue
		}
		if gotLo != lo || gotHi != hi {
			t.Errorf("section %d, key %v, k=%d: range [%d, %d), want [%d, %d)", sec, key, k, gotLo, gotHi, lo, hi)
		}
	}
}
