package links

import (
	"slices"
	"testing"
	"testing/quick"

	"alex/internal/rdf"
)

func l(a, b uint32) Link { return Link{E1: rdf.ID(a), E2: rdf.ID(b)} }

func TestSetAddRemoveHas(t *testing.T) {
	s := NewSet()
	if !s.Add(l(1, 2)) {
		t.Fatal("Add of absent link returned false")
	}
	if s.Add(l(1, 2)) {
		t.Fatal("Add of present link returned true")
	}
	if !s.Has(l(1, 2)) || s.Has(l(2, 1)) {
		t.Fatal("Has wrong")
	}
	if !s.Remove(l(1, 2)) || s.Remove(l(1, 2)) {
		t.Fatal("Remove semantics wrong")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
}

func TestSetSliceDeterministic(t *testing.T) {
	s := NewSet(l(3, 1), l(1, 2), l(1, 1), l(2, 9))
	got := s.Slice()
	want := []Link{l(1, 1), l(1, 2), l(2, 9), l(3, 1)}
	if len(got) != len(want) {
		t.Fatalf("Slice len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Slice[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestIntersectionAndSymmetricDiff(t *testing.T) {
	a := NewSet(l(1, 1), l(2, 2), l(3, 3))
	b := NewSet(l(2, 2), l(3, 3), l(4, 4), l(5, 5))
	if got := a.Intersection(b); got != 2 {
		t.Fatalf("Intersection = %d, want 2", got)
	}
	if got := b.Intersection(a); got != 2 {
		t.Fatal("Intersection not symmetric")
	}
	if got := a.SymmetricDiff(b); got != 3 {
		t.Fatalf("SymmetricDiff = %d, want 3", got)
	}
	if got := a.SymmetricDiff(a); got != 0 {
		t.Fatalf("SymmetricDiff(self) = %d, want 0", got)
	}
}

func TestClone(t *testing.T) {
	a := NewSet(l(1, 1))
	b := a.Clone()
	b.Add(l(2, 2))
	if a.Has(l(2, 2)) {
		t.Fatal("Clone shares storage")
	}
}

// Property: |AΔB| = |A| + |B| − 2|A∩B| and is a metric-like symmetric value.
func TestSymmetricDiffProperty(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a, b := NewSet(), NewSet()
		for _, x := range xs {
			a.Add(l(uint32(x%50), uint32(x/50%50)))
		}
		for _, y := range ys {
			b.Add(l(uint32(y%50), uint32(y/50%50)))
		}
		d1, d2 := a.SymmetricDiff(b), b.SymmetricDiff(a)
		if d1 != d2 {
			return false
		}
		manual := 0
		for x := range a {
			if !b.Has(x) {
				manual++
			}
		}
		for y := range b {
			if !a.Has(y) {
				manual++
			}
		}
		return d1 == manual
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: merging B's changes from A into A's sorted slice gives B's
// sorted slice, and leaves A's slice as it was.
func TestMergeProperty(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a, b := NewSet(), NewSet()
		for _, x := range xs {
			a.Add(l(uint32(x%50), uint32(x/50%50)))
		}
		for _, y := range ys {
			b.Add(l(uint32(y%50), uint32(y/50%50)))
		}
		var added, removed []Link
		for _, x := range b.Slice() {
			if !a.Has(x) {
				added = append(added, x)
			}
		}
		for _, x := range a.Slice() {
			if !b.Has(x) {
				removed = append(removed, x)
			}
		}
		prev := a.Slice()
		got := Merge(prev, added, removed)
		return slices.Equal(got, b.Slice()) && slices.Equal(prev, a.Slice())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
