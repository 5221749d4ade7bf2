// Fault-injection coverage of the store's one write: a commit hit by a
// torn write, a failed fsync, a failed rename or a crash leaves no
// store behind — Open reports ErrNoStore — and a fresh build over the
// same directory opens whole. Injected mmap failures drive the
// heap-read fallback. Crash recovery at the serving layer (journal
// replay over a committed store) lives in internal/server.
package store

import (
	"errors"
	"math/rand"
	"testing"

	"alex/internal/faultfs"
	"alex/internal/links"
	"alex/internal/rdf"
)

// faultWorld builds an uncommitted single-source set in dir over a
// fresh faultfs, with entities and initial links recorded, and returns
// the oracle its commit must read back as.
func faultWorld(t *testing.T, dir string) (*faultfs.FS, *Set, oracle) {
	t.Helper()
	ffs := faultfs.New(nil)
	set, err := Create(dir, nil, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { set.Close() }) //nolint:errcheck // read-only teardown
	src, err := set.AddSource("ds1")
	if err != nil {
		t.Fatal(err)
	}
	ts := randomTriples(rand.New(rand.NewSource(8)), 400, 15)
	fillSource(t, set, src, ts)
	set.SetEntities("ds1", []rdf.ID{1, 2, 3})
	set.SetInitialLinks([]links.Link{{E1: 1, E2: 4}})
	return ffs, set, oracleOf(ts)
}

// assertTornBuild injects a fault, requires the commit to fail with the
// source still reading as empty, then simulates a process death: the
// reopen must find no store, and a fresh build over the same directory
// — overwriting the torn build's files — must open equal to the
// oracle.
func assertTornBuild(t *testing.T, inject func(*faultfs.FS)) {
	t.Helper()
	dir := t.TempDir()
	ffs, set, ref := faultWorld(t, dir)
	inject(ffs)
	if err := set.Compact(); err == nil {
		t.Fatal("commit survived the injected fault")
	}
	if n := set.Source("ds1").Size(); n != 0 {
		t.Fatalf("failed commit left the source reading %d triples", n)
	}

	// Power cut, restart over the same directory.
	ffs.Revive()
	if _, err := Open(dir, Options{FS: ffs}); !errors.Is(err, ErrNoStore) {
		t.Fatalf("reopen after torn commit: %v, want ErrNoStore", err)
	}
	_, rebuild, _ := faultWorld(t, dir)
	if err := rebuild.Compact(); err != nil {
		t.Fatalf("rebuild over the torn build: %v", err)
	}
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open the rebuilt store: %v", err)
	}
	defer re.Close()
	assertStoreEqual(t, re.Source("ds1"), ref, 15)
	if ls, ok := re.InitialLinks(); !ok || len(ls) != 1 || len(re.Entities("ds1")) != 3 {
		t.Fatalf("rebuilt store: links %v (%v), entities %v", ls, ok, re.Entities("ds1"))
	}
}

func TestCompactionTornWrite(t *testing.T) {
	assertTornBuild(t, func(f *faultfs.FS) { f.ShortWriteAt(f.Writes() + 1) })
}

func TestCompactionFailedSync(t *testing.T) {
	assertTornBuild(t, func(f *faultfs.FS) { f.FailAllSyncs(true) })
}

// TestCompactionFailedRename fails the manifest's rename: every other
// file of the store is durable, and still nothing is committed.
func TestCompactionFailedRename(t *testing.T) {
	// Rename 1 installs the one segment, rename 2 the manifest.
	assertTornBuild(t, func(f *faultfs.FS) { f.FailRenameAt(2) })
}

// TestCompactionCrashMidWrite kills the process after each write a
// commit makes in turn, the manifest's own included.
func TestCompactionCrashMidWrite(t *testing.T) {
	ffs, set, _ := faultWorld(t, t.TempDir())
	before := ffs.Writes()
	if err := set.Compact(); err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= ffs.Writes()-before; n++ {
		assertTornBuild(t, func(f *faultfs.FS) { f.CrashAfterWrites(n) })
	}
}

// TestMmapFaultFallsBackToHeap: a vetoed mmap must not fail the open —
// the segment loads through the FS into the heap and serves
// identically.
func TestMmapFaultFallsBackToHeap(t *testing.T) {
	dir := t.TempDir()
	ffs, set, ref := faultWorld(t, dir)
	if err := set.Compact(); err != nil {
		t.Fatal(err)
	}
	ffs.FailMmaps(true)
	re, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatalf("open with mmap fault: %v", err)
	}
	defer re.Close()
	if re.Source("ds1").seg.mapped {
		t.Fatal("segment mapped despite the injected mmap fault")
	}
	assertStoreEqual(t, re.Source("ds1"), ref, 15)
}
