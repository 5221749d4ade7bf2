package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"alex/internal/links"
	"alex/internal/rdf"
	"alex/internal/wal"
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

// assertStoreEqual compares a Segmented store against the oracle on
// every TripleStore read.
func assertStoreEqual(t *testing.T, got TripleStore, want oracle, universe int) {
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
	ref := oracleOf(ts)
	set.SetEntities("ds1", []rdf.ID{3, 1, 9})
	set.SetInitialLinks([]links.Link{{E1: 1, E2: 2}, {E1: 5, E2: 7}})

	// Before the commit the source reads as empty.
	assertStoreEqual(t, src, nil, 30)
	if err := set.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
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

// TestSetCheckpointSkipsWhenClean: Checkpoint commits an uncommitted
// set, and on a committed one — built here or opened — writes nothing.
func TestSetCheckpointSkipsWhenClean(t *testing.T) {
	dir := t.TempDir()
	set, err := Create(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	src, _ := set.AddSource("ds1")
	ts := randomTriples(rand.New(rand.NewSource(3)), 100, 10)
	fillSource(t, set, src, ts)
	wrote, err := set.Checkpoint()
	if err != nil || !wrote {
		t.Fatalf("first checkpoint: wrote=%v err=%v, want a commit", wrote, err)
	}
	assertStoreEqual(t, src, oracleOf(ts), 10)
	before := dirState(t, dir)
	if wrote, err := set.Checkpoint(); err != nil || wrote {
		t.Fatalf("committed checkpoint: wrote=%v err=%v", wrote, err)
	}
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if wrote, err := re.Checkpoint(); err != nil || wrote {
		t.Fatalf("opened checkpoint: wrote=%v err=%v", wrote, err)
	}
	if got := dirState(t, dir); got != before {
		t.Fatalf("checkpoint of a committed store touched the dir:\nbefore %s\nafter  %s", before, got)
	}
}

// TestSetIsWrittenOnce: after the commit the set refuses every write,
// and Create refuses a directory that holds a committed store.
func TestSetIsWrittenOnce(t *testing.T) {
	dir := t.TempDir()
	set, err := Create(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	src, _ := set.AddSource("ds1")
	fillSource(t, set, src, randomTriples(rand.New(rand.NewSource(4)), 50, 8))
	if err := set.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, nil, Options{}); err == nil {
		t.Fatal("Create over a committed store succeeded")
	}
	if _, err := set.AddSource("ds2"); err == nil {
		t.Fatal("AddSource after the commit succeeded")
	}
	if err := set.Compact(); err == nil {
		t.Fatal("a second Compact succeeded")
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `"ds1"`) {
			t.Fatalf("InsertIDs after the commit: panic %q, want one naming the source", msg)
		}
	}()
	src.InsertIDs(1, 1, 1)
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
		parts = append(parts, fmt.Sprintf("%s:%d:%s", fi.Name(), fi.Size(), fi.ModTime()))
	}
	sort.Strings(parts)
	return strings.Join(parts, "\n")
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

// commitTwoSources commits a store with two sources, both with entity
// lists, and an initial link set: every framed file a store can hold.
func commitTwoSources(t *testing.T, dir string, opts Options) {
	t.Helper()
	set, err := Create(dir, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	for i, name := range []string{"ds1", "ds2"} {
		src, err := set.AddSource(name)
		if err != nil {
			t.Fatal(err)
		}
		fillSource(t, set, src, randomTriples(rand.New(rand.NewSource(int64(i+5))), 60, 12))
		set.SetEntities(name, []rdf.ID{1, rdf.ID(i + 2)})
	}
	set.SetInitialLinks([]links.Link{{E1: 1, E2: 3}})
	if err := set.Compact(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenFailsOnCorruptFramedFile flips one payload byte in each
// framed file of a committed store: Open must fail and name the file.
// In dict.bin the flip lands inside an IRI, which without a checksum
// loads as a different term rather than failing to parse.
func TestOpenFailsOnCorruptFramedFile(t *testing.T) {
	last := func(b []byte) int { return len(b) - 1 }
	for _, tc := range []struct {
		file string
		at   func([]byte) int
	}{
		{dictName, func(b []byte) int { return bytes.Index(b, []byte("urn:t:")) + len("urn:") }},
		{"ds1.ent", last},
		{"ds2.ent", last},
		{linksName, last},
	} {
		t.Run(tc.file, func(t *testing.T) {
			dir := t.TempDir()
			commitTwoSources(t, dir, Options{})
			path := filepath.Join(dir, tc.file)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[tc.at(data)] ^= 0x40
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			re, err := Open(dir, Options{})
			if err == nil {
				re.Close()
				t.Fatalf("Open accepted a flipped byte in %s", tc.file)
			}
			if !strings.Contains(err.Error(), tc.file) {
				t.Fatalf("Open: %v; want an error naming %s", err, tc.file)
			}
		})
	}
}

// manifestProbeFailFS fails every Open of a manifest with an error that
// is not fs.ErrNotExist: a permission or I/O failure on the probe.
type manifestProbeFailFS struct{ wal.FS }

func (f manifestProbeFailFS) Open(name string) (io.ReadCloser, error) {
	if strings.HasSuffix(name, manifestName) {
		return nil, errors.New("injected: permission denied")
	}
	return f.FS.Open(name)
}

// TestCreateRefusesAFailedProbe: Create over a committed store whose
// manifest it cannot read must refuse, not take the failed probe for
// "no store" and let a build rename a new manifest over the old one.
func TestCreateRefusesAFailedProbe(t *testing.T) {
	dir := t.TempDir()
	commitTwoSources(t, dir, Options{})
	if set, err := Create(dir, nil, Options{FS: manifestProbeFailFS{wal.OS{}}}); err == nil {
		set.Close()
		t.Fatal("Create started a build over a store whose manifest probe failed")
	}
}
