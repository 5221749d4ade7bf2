package store

import (
	"errors"
	"math/rand"
	"os"
	"sort"
	"testing"

	"alex/internal/links"
	"alex/internal/rdf"
)

// fillSource interns terms for the IDs in play and inserts the triples.
func fillSource(t *testing.T, set *Set, src *Segmented, ts []triple) {
	t.Helper()
	maxID := rdf.ID(0)
	for _, tr := range ts {
		for _, id := range []rdf.ID{tr.s, tr.p, tr.o} {
			if id > maxID {
				maxID = id
			}
		}
	}
	for set.Dict().Len() < int(maxID) {
		set.Dict().Intern(rdf.IRI("urn:t:" + string(rune('a'+set.Dict().Len()%26)) + string(rune('0'+set.Dict().Len()/26))))
	}
	for _, tr := range ts {
		src.InsertIDs(tr.s, tr.p, tr.o)
	}
}

// assertStoreEqual compares a Segmented store against a reference
// graph on every TripleStore read.
func assertStoreEqual(t *testing.T, got TripleStore, want *rdf.Graph, universe int) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("size: %d want %d", got.Size(), want.Size())
	}
	for mask := 0; mask < 8; mask++ {
		haveS, haveP, haveO := mask&1 != 0, mask&2 != 0, mask&4 != 0
		for probe := 1; probe <= universe; probe++ {
			s, p, o := rdf.ID(probe), rdf.ID(probe%(universe/4+2)+1), rdf.ID(universe+1-probe)
			if g, w := got.CountMatch(s, p, o, haveS, haveP, haveO), want.CountMatch(s, p, o, haveS, haveP, haveO); g != w {
				t.Fatalf("CountMatch mask=%03b (%d,%d,%d): %d want %d", mask, s, p, o, g, w)
			}
		}
	}
	wantSet := map[triple]bool{}
	want.ForEachMatchIDs(0, 0, 0, false, false, false, func(s, p, o rdf.ID) bool {
		wantSet[triple{s, p, o}] = true
		return true
	})
	n := 0
	got.ForEachMatchIDs(0, 0, 0, false, false, false, func(s, p, o rdf.ID) bool {
		if !wantSet[triple{s, p, o}] {
			t.Fatalf("unexpected triple (%d,%d,%d)", s, p, o)
		}
		n++
		return true
	})
	if n != len(wantSet) {
		t.Fatalf("scan saw %d triples, want %d", n, len(wantSet))
	}
	gs, ws := got.SubjectIDs(), want.SubjectIDs()
	if len(gs) != len(ws) {
		t.Fatalf("SubjectIDs: %d want %d", len(gs), len(ws))
	}
	for i := range gs {
		if gs[i] != ws[i] {
			t.Fatalf("SubjectIDs[%d]: %d want %d", i, gs[i], ws[i])
		}
	}
	for _, s := range ws {
		ge, we := got.Entity(s), want.Entity(s)
		if len(ge) != len(we) {
			t.Fatalf("Entity(%d): %d attrs want %d", s, len(ge), len(we))
		}
		for i := range ge {
			if ge[i] != we[i] {
				t.Fatalf("Entity(%d)[%d]: %v want %v", s, i, ge[i], we[i])
			}
		}
	}
}

func TestSetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	set, err := Create(dir, nil, Options{Meta: "test-v1"})
	if err != nil {
		t.Fatal(err)
	}
	src, err := set.AddSource("ds1")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	ts := randomTriples(rng, 1200, 30)
	fillSource(t, set, src, ts)
	ref := graphOf(ts)
	set.SetEntities("ds1", []rdf.ID{3, 1, 9})
	set.SetInitialLinks([]links.Link{{E1: 1, E2: 2}, {E1: 5, E2: 7}})

	if err := set.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if src.DeltaSize() != 0 || src.SegmentCount() != 1 {
		t.Fatalf("after compact: delta=%d segments=%d", src.DeltaSize(), src.SegmentCount())
	}
	assertStoreEqual(t, src, ref, 30)

	// More inserts land in the delta; a checkpoint persists them
	// without touching the segment.
	extra := randomTriples(rand.New(rand.NewSource(7)), 40, 30)
	for _, tr := range extra {
		if src.InsertIDs(tr.s, tr.p, tr.o) != ref.InsertIDs(tr.s, tr.p, tr.o) {
			t.Fatal("InsertIDs newness diverged from rdf.Graph")
		}
	}
	wrote, err := set.Checkpoint()
	if err != nil || !wrote {
		t.Fatalf("checkpoint: wrote=%v err=%v", wrote, err)
	}
	assertStoreEqual(t, src, ref, 30)

	// Cold start: same triples, entities, links, dictionary.
	re, err := Open(dir, Options{Meta: "test-v1"})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer re.Close()
	rs := re.Source("ds1")
	if rs == nil {
		t.Fatal("reopened set lost ds1")
	}
	assertStoreEqual(t, rs, ref, 30)
	if got := re.Entities("ds1"); len(got) != 3 || got[0] != 3 || got[2] != 9 {
		t.Fatalf("entities: %v", got)
	}
	if ls, ok := re.InitialLinks(); !ok || len(ls) != 2 || ls[1] != (links.Link{E1: 5, E2: 7}) {
		t.Fatalf("links: %v %v", ls, ok)
	}
	if re.Dict().Len() != set.Dict().Len() {
		t.Fatalf("dict: %d want %d", re.Dict().Len(), set.Dict().Len())
	}
	for id := 1; id <= set.Dict().Len(); id++ {
		if re.Dict().Term(rdf.ID(id)) != set.Dict().Term(rdf.ID(id)) {
			t.Fatalf("dict term %d differs", id)
		}
	}
}

func TestSetCheckpointSkipsWhenClean(t *testing.T) {
	dir := t.TempDir()
	set, err := Create(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	src, _ := set.AddSource("ds1")
	fillSource(t, set, src, randomTriples(rand.New(rand.NewSource(3)), 100, 10))
	if err := set.Compact(); err != nil {
		t.Fatal(err)
	}
	if set.Dirty() {
		t.Fatal("set dirty right after compact")
	}
	before := dirState(t, dir)
	gen := set.Generation()
	wrote, err := set.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if wrote {
		t.Fatal("clean checkpoint claimed to write")
	}
	if err := set.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := dirState(t, dir); got != before {
		t.Fatalf("clean checkpoint/compact touched the dir:\nbefore %s\nafter  %s", before, got)
	}
	if set.Generation() != gen {
		t.Fatalf("generation moved %d -> %d without changes", gen, set.Generation())
	}
}

// dirState fingerprints a directory: sorted name:size:mtime.
func dirState(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var parts []string
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, fi.Name()+":"+fi.ModTime().String()+":"+string(rune(fi.Size())))
	}
	sort.Strings(parts)
	out := ""
	for _, p := range parts {
		out += p + "\n"
	}
	return out
}

func TestSetMergesAtMaxSegments(t *testing.T) {
	dir := t.TempDir()
	set, err := Create(dir, nil, Options{MaxSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	src, _ := set.AddSource("ds1")
	ref := rdf.NewGraph()
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 6; round++ {
		ts := randomTriples(rng, 80, 12)
		fillSource(t, set, src, ts)
		for _, tr := range ts {
			ref.InsertIDs(tr.s, tr.p, tr.o)
		}
		if err := set.Compact(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got := src.SegmentCount(); got > 3 {
			t.Fatalf("round %d: %d segments, cap 3", round, got)
		}
		assertStoreEqual(t, src, ref, 12)
	}
	// The merged view must survive a cold start too.
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertStoreEqual(t, re.Source("ds1"), ref, 12)
}

func TestSetMetaMismatch(t *testing.T) {
	dir := t.TempDir()
	set, err := Create(dir, nil, Options{Meta: "profile=a"})
	if err != nil {
		t.Fatal(err)
	}
	src, _ := set.AddSource("ds1")
	fillSource(t, set, src, randomTriples(rand.New(rand.NewSource(2)), 30, 8))
	if err := set.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Meta: "profile=b"}); err == nil {
		t.Fatal("meta mismatch accepted")
	}
	re, err := Open(dir, Options{Meta: "profile=a"})
	if err != nil {
		t.Fatal(err)
	}
	re.Close()
}

func TestOpenNoStore(t *testing.T) {
	_, err := Open(t.TempDir(), Options{})
	if !errors.Is(err, ErrNoStore) {
		t.Fatalf("want ErrNoStore, got %v", err)
	}
}
