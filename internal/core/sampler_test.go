package core

import (
	"math"
	"testing"

	"alex/internal/links"
	"alex/internal/rdf"
)

// TestSamplerIsUniformAfterReadmission: §7.1's feedback generator draws
// candidates uniformly. A link removed and admitted again has two
// entries in the sampling order; only its newest may count, or it is
// drawn twice as often as any other candidate until the next
// compaction.
func TestSamplerIsUniformAfterReadmission(t *testing.T) {
	ds := smallWorld(t)
	sys := newTestSystem(t, ds, nil)
	p := sys.parts[0]
	for i := 0; i < 40; i++ {
		p.addCandidate(links.Link{E1: rdf.ID(900000 + i), E2: rdf.ID(910000 + i)}, nil)
	}
	l := links.Link{E1: 900007, E2: 910007}
	p.removeCandidate(l)
	p.addCandidate(l, nil)

	entries := 0
	for i, e := range p.order {
		if e == l && p.cands[l].slot == i {
			entries++
		}
	}
	if entries != 1 {
		t.Fatalf("the re-admitted link owns %d live entries, want 1", entries)
	}
	if p.dead != len(p.order)-len(p.cands) {
		t.Fatalf("dead = %d, want %d", p.dead, len(p.order)-len(p.cands))
	}

	const draws = 10000
	hits := 0
	for i := 0; i < draws; i++ {
		got, ok := p.sample()
		if !ok {
			t.Fatal("no candidate drawn")
		}
		if got == l {
			hits++
		}
	}
	q := 1 / float64(len(p.cands))
	want, sigma := draws*q, math.Sqrt(draws*q*(1-q))
	if math.Abs(float64(hits)-want) > 4*sigma {
		t.Fatalf("re-admitted link drawn %d times in %d, want %.0f ± %.0f (4σ) for 1/|C| with |C| = %d",
			hits, draws, want, 4*sigma, len(p.cands))
	}

	p.compact()
	if len(p.order) != len(p.cands) || p.dead != 0 {
		t.Fatalf("after compaction %d entries for %d candidates, %d dead", len(p.order), len(p.cands), p.dead)
	}
	for i, e := range p.order {
		if p.cands[e].slot != i {
			t.Fatalf("entry %d's candidate has slot %d", i, p.cands[e].slot)
		}
	}
}
