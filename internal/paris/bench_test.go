package paris

import (
	"fmt"
	"testing"

	"alex/internal/rdf"
)

func benchWorld(n int) *builder {
	b := newBuilder()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("Entity Number %d", i)
		year := fmt.Sprintf("%d", 1900+i%100)
		b.add1(fmt.Sprintf("e%d", i), "label", rdf.Literal(name))
		b.add1(fmt.Sprintf("e%d", i), "year", rdf.Literal(year))
		b.add2(fmt.Sprintf("f%d", i), "name", rdf.Literal(name))
		b.add2(fmt.Sprintf("f%d", i), "born", rdf.Literal(year))
	}
	return b
}

func BenchmarkLink(b *testing.B) {
	w := benchWorld(500)
	e1, e2 := w.g1.SubjectIDs(), w.g2.SubjectIDs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := Link(w.g1, w.g2, e1, e2, NewOptions())
		if len(got) != 500 {
			b.Fatalf("links=%d", len(got))
		}
	}
}
