package links

import (
	"fmt"
	"testing"

	"alex/internal/rdf"
)

func frozenLink(i int) Link {
	return Link{
		E1: rdf.ID(2*i + 1),
		E2: rdf.ID(2*i + 2),
	}
}

func TestFrozenNilIsEmpty(t *testing.T) {
	var f *Frozen
	if f.Len() != 0 {
		t.Fatalf("nil Frozen Len = %d, want 0", f.Len())
	}
	if !f.Empty() {
		t.Fatal("nil Frozen should be Empty")
	}
	if f.Has(frozenLink(0)) {
		t.Fatal("nil Frozen should contain nothing")
	}
	if s := f.Set(); len(s) != 0 {
		t.Fatalf("nil Frozen Set() = %v, want empty", s)
	}
}

func TestFrozenWithAndHas(t *testing.T) {
	a, b, c := frozenLink(0), frozenLink(1), frozenLink(2)
	f := NewFrozen(a)
	g := f.With(b)
	h := g.With(c)

	// Each generation sees its own links plus its ancestors'.
	if !f.Has(a) || f.Has(b) || f.Has(c) {
		t.Fatalf("f membership wrong: %v %v %v", f.Has(a), f.Has(b), f.Has(c))
	}
	if !g.Has(a) || !g.Has(b) || g.Has(c) {
		t.Fatalf("g membership wrong")
	}
	if !h.Has(a) || !h.Has(b) || !h.Has(c) {
		t.Fatalf("h membership wrong")
	}
	if f.Len() != 1 || g.Len() != 2 || h.Len() != 3 {
		t.Fatalf("lens = %d %d %d, want 1 2 3", f.Len(), g.Len(), h.Len())
	}
}

func TestFrozenWithIsPersistent(t *testing.T) {
	a, b := frozenLink(0), frozenLink(1)
	f := NewFrozen(a)
	_ = f.With(b)
	// Extending must not mutate the receiver.
	if f.Has(b) {
		t.Fatal("With mutated its receiver")
	}
	if f.Len() != 1 {
		t.Fatalf("receiver Len changed to %d", f.Len())
	}
}

func TestFrozenWithDedup(t *testing.T) {
	a, b := frozenLink(0), frozenLink(1)
	f := NewFrozen(a, b)
	if f.Len() != 2 {
		t.Fatalf("Len = %d, want 2", f.Len())
	}

	// Adding only already-present links returns the receiver itself.
	if g := f.With(a); g != f {
		t.Fatal("With(existing) should return the receiver")
	}
	if g := f.With(); g != f {
		t.Fatal("With() should return the receiver")
	}

	// Duplicates within one call collapse.
	h := f.With(frozenLink(2), frozenLink(2), a)
	if h.Len() != 3 {
		t.Fatalf("Len after dup add = %d, want 3", h.Len())
	}
}

func TestFrozenSetMaterialization(t *testing.T) {
	a, b, c := frozenLink(0), frozenLink(1), frozenLink(2)
	f := NewFrozen(a).With(b).With(c, a)

	s := f.Set()
	want := Set{a: {}, b: {}, c: {}}
	if len(s) != len(want) {
		t.Fatalf("Set() = %v, want %v", s, want)
	}
	for l := range want {
		if !s.Has(l) {
			t.Fatalf("Set() missing %v", l)
		}
	}

	// AppendTo lists the same links, once each, after what dst held.
	flat := f.AppendTo([]Link{frozenLink(7)})
	if len(flat) != 4 || flat[0] != frozenLink(7) || NewSet(flat[1:]...).SymmetricDiff(want) != 0 {
		t.Fatalf("AppendTo = %v, want %v after %v", flat, want, frozenLink(7))
	}
	if got := (*Frozen)(nil).AppendTo(nil); got != nil {
		t.Fatalf("nil.AppendTo(nil) = %v", got)
	}

	// The materialized set is caller-owned: mutating it must not leak
	// back into the frozen chain or other materializations.
	s.Add(frozenLink(9))
	if f.Has(frozenLink(9)) {
		t.Fatal("mutating materialized Set affected the Frozen")
	}
	if f.Set().Has(frozenLink(9)) {
		t.Fatal("materializations share state")
	}
}

func TestFrozenSharedAncestry(t *testing.T) {
	base := NewFrozen(frozenLink(0))
	left := base.With(frozenLink(1))
	right := base.With(frozenLink(2))

	if left.Has(frozenLink(2)) || right.Has(frozenLink(1)) {
		t.Fatal("siblings leaked into each other")
	}
	if !left.Has(frozenLink(0)) || !right.Has(frozenLink(0)) {
		t.Fatal("siblings lost shared ancestor")
	}
}

func TestFrozenLongChain(t *testing.T) {
	var f *Frozen
	const n = 1000
	for i := 0; i < n; i++ {
		f = f.With(frozenLink(i))
	}
	if f.Len() != n {
		t.Fatalf("Len = %d, want %d", f.Len(), n)
	}
	s := f.Set()
	if len(s) != n {
		t.Fatalf("materialized %d links, want %d", len(s), n)
	}
	for i := 0; i < n; i++ {
		if !s.Has(frozenLink(i)) {
			t.Fatalf("missing link %d", i)
		}
	}
}

func ExampleFrozen() {
	a := Link{E1: 1, E2: 2}
	b := Link{E1: 3, E2: 4}
	f := NewFrozen(a)
	g := f.With(b)
	fmt.Println(f.Len(), g.Len(), g.Has(a))
	// Output: 1 2 true
}
