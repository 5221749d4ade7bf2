package rdf

import (
	"fmt"
	"strings"
	"testing"
)

func buildBenchGraph(n int) *Graph {
	g := NewGraph()
	for i := 0; i < n; i++ {
		s := IRI(fmt.Sprintf("http://e/%d", i))
		g.Insert(Triple{S: s, P: IRI("http://p/name"), O: Literal(fmt.Sprintf("entity %d", i))})
		g.Insert(Triple{S: s, P: IRI("http://p/type"), O: IRI(fmt.Sprintf("http://t/%d", i%16))})
		g.Insert(Triple{S: s, P: IRI("http://p/next"), O: IRI(fmt.Sprintf("http://e/%d", (i+1)%n))})
	}
	return g
}

func BenchmarkGraphInsert(b *testing.B) {
	g := NewGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Insert(Triple{
			S: IRI(fmt.Sprintf("http://e/%d", i%10000)),
			P: IRI(fmt.Sprintf("http://p/%d", i%8)),
			O: Literal(fmt.Sprintf("v%d", i)),
		})
	}
}

func BenchmarkGraphMatchByPredicate(b *testing.B) {
	g := buildBenchGraph(5000)
	p := IRI("http://p/type")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		g.ForEachMatch(Pattern{P: &p}, func(Triple) bool { n++; return true })
		if n != 5000 {
			b.Fatalf("n=%d", n)
		}
	}
}

func BenchmarkGraphMatchBySubjectPredicate(b *testing.B) {
	g := buildBenchGraph(5000)
	d := g.Dict()
	s, _ := d.Lookup(IRI("http://e/1234"))
	p, _ := d.Lookup(IRI("http://p/name"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(g.Objects(s, p)) != 1 {
			b.Fatal("missing")
		}
	}
}

func BenchmarkNTriplesParse(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&sb, "<http://e/%d> <http://p/name> \"entity number %d with a \\\"quote\\\"\" .\n", i, i)
	}
	doc := sb.String()
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := NewGraph()
		if _, err := ReadNTriples(strings.NewReader(doc), g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDictIntern(b *testing.B) {
	d := NewDict()
	terms := make([]Term, 4096)
	for i := range terms {
		terms[i] = IRI(fmt.Sprintf("http://e/%d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Intern(terms[i%len(terms)])
	}
}
