package rdf

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func tr(s, p, o string) Triple {
	return Triple{IRI("http://ex.org/" + s), IRI("http://ex.org/" + p), Literal(o)}
}

func TestGraphInsertDedup(t *testing.T) {
	g := NewGraph()
	g.Insert(tr("s", "p", "o"))
	g.Insert(tr("s", "p", "o"))
	if g.Size() != 1 {
		t.Fatalf("Size = %d, want 1", g.Size())
	}
}

func TestGraphHas(t *testing.T) {
	g := NewGraph()
	g.Insert(tr("s", "p", "o"))
	if !g.Has(tr("s", "p", "o")) {
		t.Fatal("Has missed inserted triple")
	}
	if g.Has(tr("s", "p", "other")) {
		t.Fatal("Has found absent triple")
	}
	if g.Has(tr("never", "interned", "terms")) {
		t.Fatal("Has found triple with uninterned terms")
	}
}

func TestGraphMatchAllAccessPaths(t *testing.T) {
	g := NewGraph()
	triples := []Triple{tr("s1", "p1", "o1"), tr("s1", "p2", "o2"), tr("s2", "p1", "o1"), tr("s2", "p2", "o3")}
	for _, x := range triples {
		g.Insert(x)
	}
	s1 := IRI("http://ex.org/s1")
	p1 := IRI("http://ex.org/p1")
	o1 := Literal("o1")

	count := func(pat Pattern) int {
		n := 0
		g.ForEachMatch(pat, func(Triple) bool { n++; return true })
		return n
	}
	cases := []struct {
		pat  Pattern
		want int
	}{
		{Pattern{}, 4},
		{Pattern{S: &s1}, 2},
		{Pattern{P: &p1}, 2},
		{Pattern{O: &o1}, 2},
		{Pattern{S: &s1, P: &p1}, 1},
		{Pattern{P: &p1, O: &o1}, 2},
		{Pattern{S: &s1, O: &o1}, 1},
		{Pattern{S: &s1, P: &p1, O: &o1}, 1},
	}
	for i, c := range cases {
		if got := count(c.pat); got != c.want {
			t.Errorf("case %d: matched %d, want %d", i, got, c.want)
		}
	}
}

func TestGraphMatchEarlyStop(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 10; i++ {
		g.Insert(tr("s", "p", fmt.Sprintf("o%d", i)))
	}
	n := 0
	g.ForEachMatch(Pattern{}, func(Triple) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early stop visited %d, want 3", n)
	}
}

func TestGraphEntityView(t *testing.T) {
	g := NewGraph()
	g.Insert(tr("e", "name", "Ada"))
	g.Insert(tr("e", "born", "1815"))
	g.Insert(tr("e", "name", "Ada Lovelace"))
	s, _ := g.Dict().Lookup(IRI("http://ex.org/e"))
	attrs := g.Entity(s)
	if len(attrs) != 3 {
		t.Fatalf("Entity returned %d attributes, want 3", len(attrs))
	}
	if !sort.SliceIsSorted(attrs, func(i, j int) bool {
		if attrs[i].Pred != attrs[j].Pred {
			return attrs[i].Pred < attrs[j].Pred
		}
		return attrs[i].Obj < attrs[j].Obj
	}) {
		t.Fatal("Entity attributes are not sorted")
	}
}

func TestGraphSharedDict(t *testing.T) {
	d := NewDict()
	g1 := NewGraphWithDict(d)
	g2 := NewGraphWithDict(d)
	g1.Insert(tr("s", "p", "o"))
	g2.Insert(tr("s", "p", "o2"))
	id1, ok1 := g1.Dict().Lookup(IRI("http://ex.org/s"))
	id2, ok2 := g2.Dict().Lookup(IRI("http://ex.org/s"))
	if !ok1 || !ok2 || id1 != id2 {
		t.Fatal("shared dictionary does not produce identical IDs")
	}
}

func TestGraphCountMatch(t *testing.T) {
	g := NewGraph()
	g.Insert(tr("s", "p", "o1"))
	g.Insert(tr("s", "p", "o2"))
	s, _ := g.Dict().Lookup(IRI("http://ex.org/s"))
	p, _ := g.Dict().Lookup(IRI("http://ex.org/p"))
	if got := g.CountMatch(s, p, 0, true, true, false); got != 2 {
		t.Fatalf("CountMatch(s,p,·) = %d, want 2", got)
	}
	if got := g.CountMatch(0, 0, 0, false, false, false); got != 2 {
		t.Fatalf("CountMatch(·,·,·) = %d, want 2", got)
	}
}

// Property: inserting any set of triples yields a graph whose size equals
// the number of distinct triples and where Has holds for each.
func TestGraphInsertProperty(t *testing.T) {
	f := func(raw [][3]uint8) bool {
		g := NewGraph()
		seen := map[[3]uint8]bool{}
		for _, r := range raw {
			g.Insert(Triple{
				S: IRI(fmt.Sprintf("http://s/%d", r[0]%8)),
				P: IRI(fmt.Sprintf("http://p/%d", r[1]%4)),
				O: Literal(fmt.Sprintf("o%d", r[2]%8)),
			})
			seen[[3]uint8{r[0] % 8, r[1] % 4, r[2] % 8}] = true
		}
		if g.Size() != len(seen) {
			return false
		}
		for k := range seen {
			if !g.Has(Triple{
				S: IRI(fmt.Sprintf("http://s/%d", k[0])),
				P: IRI(fmt.Sprintf("http://p/%d", k[1])),
				O: Literal(fmt.Sprintf("o%d", k[2])),
			}) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGraphSubjectsObjects(t *testing.T) {
	g := NewGraph()
	g.Insert(tr("s", "p", "o1"))
	g.Insert(tr("s", "p", "o2"))
	g.Insert(tr("s2", "p", "o1"))
	d := g.Dict()
	s, _ := d.Lookup(IRI("http://ex.org/s"))
	p, _ := d.Lookup(IRI("http://ex.org/p"))
	o1, _ := d.Lookup(Literal("o1"))
	if objs := g.Objects(s, p); len(objs) != 2 {
		t.Fatalf("Objects = %d results, want 2", len(objs))
	}
	if subs := g.Subjects(p, o1); len(subs) != 2 {
		t.Fatalf("Subjects = %d results, want 2", len(subs))
	}
}

func TestGraphIDListings(t *testing.T) {
	g := NewGraph()
	g.Insert(tr("s1", "p1", "o"))
	g.Insert(tr("s2", "p2", "o"))
	if got := len(g.SubjectIDs()); got != 2 {
		t.Fatalf("SubjectIDs = %d, want 2", got)
	}
	if got := len(g.PredicateIDs()); got != 2 {
		t.Fatalf("PredicateIDs = %d, want 2", got)
	}
}

// TestCountMatchAgainstEnumeration cross-checks the index-based
// CountMatch against a brute-force enumeration for every combination of
// bound positions, including IDs absent from the graph.
func TestCountMatchAgainstEnumeration(t *testing.T) {
	g := NewGraph()
	g.Insert(tr("s1", "p1", "o1"))
	g.Insert(tr("s1", "p1", "o2"))
	g.Insert(tr("s1", "p2", "o1"))
	g.Insert(tr("s2", "p1", "o1"))
	g.Insert(tr("s2", "p2", "o3"))
	g.Insert(tr("s3", "p3", "o3"))

	d := g.Dict()
	ids := []ID{}
	for _, name := range []string{"s1", "s2", "s3", "p1", "p2", "p3"} {
		id, ok := d.Lookup(IRI("http://ex.org/" + name))
		if !ok {
			t.Fatalf("missing id for %s", name)
		}
		ids = append(ids, id)
	}
	for _, name := range []string{"o1", "o2", "o3"} {
		id, ok := d.Lookup(Literal(name))
		if !ok {
			t.Fatalf("missing id for %s", name)
		}
		ids = append(ids, id)
	}
	ids = append(ids, NoID, ID(9999)) // absent / never-interned

	for _, s := range ids {
		for _, p := range ids {
			for _, o := range ids {
				for mask := 0; mask < 8; mask++ {
					haveS := mask&1 != 0
					haveP := mask&2 != 0
					haveO := mask&4 != 0
					want := 0
					g.ForEachMatchIDs(s, p, o, haveS, haveP, haveO, func(_, _, _ ID) bool {
						want++
						return true
					})
					got := g.CountMatch(s, p, o, haveS, haveP, haveO)
					if got != want {
						t.Fatalf("CountMatch(%d,%d,%d,%v,%v,%v) = %d, enumeration = %d",
							s, p, o, haveS, haveP, haveO, got, want)
					}
				}
			}
		}
	}
}

// TestGraphConcurrentFirstReads: eight goroutines make the first reads
// of a freshly loaded graph at once, so they race to build its index;
// run under -race. Every one must see the whole graph.
func TestGraphConcurrentFirstReads(t *testing.T) {
	g := buildBenchGraph(500)
	d := g.Dict()
	s, _ := d.Lookup(IRI("http://e/7"))
	p, _ := d.Lookup(IRI("http://p/type"))
	o, _ := d.Lookup(IRI("http://t/7"))
	var wg sync.WaitGroup
	errs := make(chan string, 8*3)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 3 {
			case 0:
				if n := g.CountMatch(0, p, o, false, true, true); n != 31 { // i%16 == 7 for 31 i < 500
					errs <- fmt.Sprintf("CountMatch(·,type,t7) = %d, want 31", n)
				}
			case 1:
				n := 0
				g.ForEachMatchIDs(s, 0, 0, true, false, false, func(_, _, _ ID) bool { n++; return true })
				if n != 3 {
					errs <- fmt.Sprintf("ForEachMatchIDs(e7,·,·) saw %d, want 3", n)
				}
			default:
				if a := g.Entity(s); len(a) != 3 {
					errs <- fmt.Sprintf("Entity(e7) = %d attributes, want 3", len(a))
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if g.Size() != 3*500 {
		t.Fatalf("Size = %d, want %d", g.Size(), 3*500)
	}
}

// TestHeldIndexSurvivesReplacement: an *Index the graph handed out is
// immutable. Four readers hold the one g.index() returned and read it
// through every read method while InsertIDs replaces it and reads
// rebuild it, six times over; run under -race. A write to the replaced
// index (the graph folding it back into its buffer, say) races the
// readers, and one that changes an answer fails the value checks.
func TestHeldIndexSurvivesReplacement(t *testing.T) {
	g := buildBenchGraph(500)
	x := g.index()
	d := g.Dict()
	s, _ := d.Lookup(IRI("http://e/7"))
	p, _ := d.Lookup(IRI("http://p/type"))
	o, _ := d.Lookup(IRI("http://t/7"))
	read := func() (got []string) {
		if n := x.Size(); n != 3*500 {
			got = append(got, fmt.Sprintf("Size = %d, want %d", n, 3*500))
		}
		if n := x.CountMatch(0, p, o, false, true, true); n != 31 {
			got = append(got, fmt.Sprintf("CountMatch(·,type,t7) = %d, want 31", n))
		}
		n := 0
		x.ForEachMatchIDs(s, 0, 0, true, false, false, func(_, _, _ ID) bool { n++; return true })
		if n != 3 {
			got = append(got, fmt.Sprintf("ForEachMatchIDs(e7,·,·) saw %d, want 3", n))
		}
		if a := x.Entity(s); len(a) != 3 {
			got = append(got, fmt.Sprintf("Entity(e7) = %d attributes, want 3", len(a)))
		}
		if n := len(x.SubjectIDs()); n != 500 {
			got = append(got, fmt.Sprintf("SubjectIDs = %d, want 500", n))
		}
		if n := len(x.PredicateIDs()); n != 3 {
			got = append(got, fmt.Sprintf("PredicateIDs = %d, want 3", n))
		}
		return got
	}
	stop := make(chan struct{})
	var started, wg sync.WaitGroup
	errs := make(chan []string, 4)
	for r := 0; r < 4; r++ {
		started.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; ; first = false {
				got := read()
				if first {
					started.Done()
				}
				if len(got) > 0 {
					errs <- got
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	started.Wait()
	for i := 0; i < 6; i++ {
		g.InsertIDs(s, p, d.Intern(IRI(fmt.Sprintf("http://t/extra%d", i))))
		if n := g.Size(); n != 3*500+i+1 {
			t.Errorf("Size after insert %d = %d, want %d", i, n, 3*500+i+1)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error("held index changed:", e)
	}
}

// TestGraphInsertAfterRead: an insert after a read is visible to the
// next read, and a duplicate of a triple already indexed counts once.
func TestGraphInsertAfterRead(t *testing.T) {
	g := NewGraph()
	g.Insert(tr("s", "p", "o1"))
	if g.Size() != 1 {
		t.Fatalf("Size = %d, want 1", g.Size())
	}
	g.Insert(tr("s", "p", "o2"))
	g.Insert(tr("s", "p", "o1"))
	if g.Size() != 2 {
		t.Fatalf("Size after inserts = %d, want 2", g.Size())
	}
	if !g.Has(tr("s", "p", "o2")) {
		t.Fatal("a triple inserted after a read is missing")
	}
	s, _ := g.Dict().Lookup(IRI("http://ex.org/s"))
	if attrs := g.Entity(s); len(attrs) != 2 {
		t.Fatalf("Entity = %v, want 2 attributes", attrs)
	}
}
