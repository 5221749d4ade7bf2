package federation

import (
	"slices"
	"testing"

	"alex/internal/links"
	"alex/internal/rdf"
)

func arenaLink(i int) links.Link {
	return links.Link{E1: rdf.ID(2*i + 1), E2: rdf.ID(2*i + 2)}
}

// has reports whether chain p holds l.
func (a provArena) has(p int32, l links.Link) bool {
	return slices.Contains(a.appendTo(nil, p), l)
}

// chainLinks returns chain p's links in links.Set.Slice order.
func chainLinks(a provArena, p int32) []links.Link {
	ls := a.appendTo(nil, p)
	slices.SortFunc(ls, links.Link.Compare)
	return ls
}

func TestProvArenaEmptyChain(t *testing.T) {
	var a provArena
	if a.has(0, arenaLink(0)) {
		t.Fatal("the empty chain holds a link")
	}
	if got := a.appendTo(nil, 0); got != nil {
		t.Fatalf("the empty chain lists %v", got)
	}
	a.with(0, arenaLink(0))
	if a.has(0, arenaLink(0)) || a.appendTo(nil, 0) != nil {
		t.Fatal("extending the empty chain changed it")
	}
}

func TestProvArenaWithAndHas(t *testing.T) {
	var a provArena
	x, y, z := arenaLink(0), arenaLink(1), arenaLink(2)
	f := a.with(0, x)
	g := a.with(f, y)
	h := a.with(g, z)
	// Each generation holds its own link and its ancestors'.
	for _, c := range []struct {
		p    int32
		want []links.Link
	}{{f, []links.Link{x}}, {g, []links.Link{x, y}}, {h, []links.Link{x, y, z}}} {
		if got := chainLinks(a, c.p); !slices.Equal(got, c.want) {
			t.Fatalf("chain %d lists %v, want %v", c.p, got, c.want)
		}
		for _, l := range []links.Link{x, y, z} {
			if a.has(c.p, l) != slices.Contains(c.want, l) {
				t.Fatalf("chain %d: has(%v) = %t", c.p, l, a.has(c.p, l))
			}
		}
	}
}

func TestProvArenaWithIsPersistent(t *testing.T) {
	var a provArena
	f := a.with(0, arenaLink(0))
	a.with(f, arenaLink(1))
	// Extending must not change the chain extended.
	if a.has(f, arenaLink(1)) || len(chainLinks(a, f)) != 1 {
		t.Fatalf("with changed the chain it extended: %v", chainLinks(a, f))
	}
}

// TestProvArenaWithDedup: no link occurs twice on a chain, and adding
// a link the chain holds is a no-op that makes no node.
func TestProvArenaWithDedup(t *testing.T) {
	var a provArena
	x, y := arenaLink(0), arenaLink(1)
	f := a.with(a.with(0, x), y)
	nodes := len(a)
	if g := a.with(f, x); g != f || len(a) != nodes {
		t.Fatalf("with(held link) = %d with %d nodes, want %d with %d", g, len(a), f, nodes)
	}
	if g := a.with(f, y); g != f || len(a) != nodes {
		t.Fatalf("with(last link) = %d with %d nodes, want %d with %d", g, len(a), f, nodes)
	}
	h := f
	for _, l := range []links.Link{arenaLink(2), arenaLink(2), x, arenaLink(3), y} {
		h = a.with(h, l)
	}
	if got := a.appendTo(nil, h); len(got) != 4 || len(chainLinks(a, h)) != len(slices.Compact(chainLinks(a, h))) {
		t.Fatalf("chain lists %v; want four links, each once", got)
	}
}

func TestProvArenaAppendTo(t *testing.T) {
	var a provArena
	x, y, z := arenaLink(0), arenaLink(1), arenaLink(2)
	p := a.with(a.with(a.with(0, x), y), z)
	p = a.with(p, x)
	// appendTo lists every link once, after what dst held.
	got := a.appendTo([]links.Link{arenaLink(7)}, p)
	if len(got) != 4 || got[0] != arenaLink(7) || links.NewSet(got[1:]...).SymmetricDiff(links.NewSet(x, y, z)) != 0 {
		t.Fatalf("appendTo = %v, want %v then %v", got, arenaLink(7), []links.Link{x, y, z})
	}
}

func TestProvArenaSharedAncestry(t *testing.T) {
	var a provArena
	base := a.with(0, arenaLink(0))
	left := a.with(base, arenaLink(1))
	right := a.with(base, arenaLink(2))
	if a.has(left, arenaLink(2)) || a.has(right, arenaLink(1)) {
		t.Fatal("siblings leaked into each other")
	}
	if !a.has(left, arenaLink(0)) || !a.has(right, arenaLink(0)) {
		t.Fatal("siblings lost their shared ancestor")
	}
	if len(a) != 3 {
		t.Fatalf("%d nodes for three links; the siblings copied their ancestry", len(a))
	}
}

func TestProvArenaLongChain(t *testing.T) {
	var a provArena
	const n = 1000
	p := int32(0)
	for i := 0; i < n; i++ {
		p = a.with(p, arenaLink(i))
	}
	got := chainLinks(a, p)
	if len(got) != n || len(a) != n {
		t.Fatalf("%d links on the chain, %d nodes; want %d", len(got), len(a), n)
	}
	for i := 0; i < n; i++ {
		if !a.has(p, arenaLink(i)) {
			t.Fatalf("missing link %d", i)
		}
	}
}
