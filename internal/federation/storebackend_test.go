package federation

import (
	"fmt"
	"testing"

	"alex/internal/links"
	"alex/internal/rdf"
	"alex/internal/store"
)

// The cross-backend half of the golden harness (golden_test.go): a
// federator whose sources are mmap'd immutable segments must be
// indistinguishable from one over in-memory rdf.Graphs — the same
// frozen answer rows, provenance and Degraded lists, identical
// CountMatch statistics (the planner's input) and identical executed
// join orders (the planner's output) — on every world and under every
// configuration. The disk twin is built by persisting the mem
// federator's triples, then cold-starting from the manifest, so the
// comparison also covers the write → compact → checkpoint → mmap-open
// cycle, not just the in-process Segmented.

// installedLinks reconstructs the link set a federator is running
// with from its sameAs edge index (each edge carries the canonical
// link).
func installedLinks(f *Federator) links.Set {
	ls := links.NewSet()
	for _, edges := range f.same {
		for _, e := range edges {
			ls.Add(e.link)
		}
	}
	return ls
}

// diskTwin persists every source of f into a fresh segment store,
// cold-starts the store from disk, and returns a federator over the
// reopened (mmap-backed) sources with the same links, access hooks and
// resilience policy installed.
func diskTwin(t *testing.T, f *Federator) *Federator {
	t.Helper()
	dir := t.TempDir()
	set, err := store.Create(dir, f.dict, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range f.sources {
		seg, err := set.AddSource(fmt.Sprintf("s%d", i))
		if err != nil {
			t.Fatal(err)
		}
		src.Graph.ForEachMatchIDs(0, 0, 0, false, false, false, func(s, p, o rdf.ID) bool {
			seg.InsertIDs(s, p, o)
			return true
		})
	}
	if err := set.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := set.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("cold start: %v", err)
	}
	t.Cleanup(func() { re.Close() }) //nolint:errcheck // read-only teardown

	fd := New(re.Dict())
	fd.SetResilience(f.res)
	for i, src := range f.sources {
		seg := re.Source(fmt.Sprintf("s%d", i))
		if seg == nil {
			t.Fatalf("cold start lost source %d", i)
		}
		// Keep the mem federator's source names so Degraded lists and
		// source-selection behave identically.
		if err := fd.Add(Source{Name: src.Name, Graph: seg, Access: src.Access}); err != nil {
			t.Fatal(err)
		}
	}
	fd.SetLinks(installedLinks(f))
	return fd
}

// assertCountMatchEqual compares the two backends on the planner's
// entire statistics surface: CountMatch for all eight bound-position
// masks over a probe grid, plus the posting enumerations.
func assertCountMatchEqual(t *testing.T, mem, disk store.TripleStore) {
	t.Helper()
	if mem.Size() != disk.Size() {
		t.Fatalf("size: mem %d disk %d", mem.Size(), disk.Size())
	}
	maxID := rdf.ID(mem.Dict().Len())
	step := maxID/64 + 1
	for mask := 0; mask < 8; mask++ {
		haveS, haveP, haveO := mask&1 != 0, mask&2 != 0, mask&4 != 0
		for probe := rdf.ID(0); probe <= maxID+1; probe += step {
			s, p, o := probe, probe/2+1, maxID-probe
			if m, d := mem.CountMatch(s, p, o, haveS, haveP, haveO), disk.CountMatch(s, p, o, haveS, haveP, haveO); m != d {
				t.Fatalf("CountMatch mask=%03b (%d,%d,%d): mem %d disk %d", mask, s, p, o, m, d)
			}
		}
	}
	if m, d := fmt.Sprint(mem.SubjectIDs()), fmt.Sprint(disk.SubjectIDs()); m != d {
		t.Fatalf("SubjectIDs diverge:\nmem  %s\ndisk %s", m, d)
	}
	if m, d := fmt.Sprint(mem.PredicateIDs()), fmt.Sprint(disk.PredicateIDs()); m != d {
		t.Fatalf("PredicateIDs diverge:\nmem  %s\ndisk %s", m, d)
	}
}
