// Fault-injection coverage of the segment write path: torn writes and
// failed fsyncs abort a compaction without corrupting the in-memory
// view or the on-disk generation; injected mmap failures drive the
// heap-read fallback; injected link failures drive the checkpoint copy
// fallback. Crash-during-compaction recovery at the serving layer
// (with journal replay) lives in internal/server.
package store

import (
	"math/rand"
	"testing"

	"alex/internal/faultfs"
	"alex/internal/rdf"
)

// faultWorld builds a compacted single-source set over a faultfs so
// each test starts from a durable generation with a dirty delta.
func faultWorld(t *testing.T, dir string) (*faultfs.FS, *Set, *Segmented, *rdf.Graph) {
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
	ref := graphOf(ts)
	if err := set.Compact(); err != nil {
		t.Fatal(err)
	}
	extra := randomTriples(rand.New(rand.NewSource(9)), 60, 15)
	for _, tr := range extra {
		src.InsertIDs(tr.s, tr.p, tr.o)
		ref.InsertIDs(tr.s, tr.p, tr.o)
	}
	return ffs, set, src, ref
}

// assertTornCompaction injects a fault, requires Compact to fail
// without losing a triple from the serving view, then simulates a
// process death and requires a reopen to land on the previous
// generation — the last state whose manifest committed.
func assertTornCompaction(t *testing.T, inject func(*faultfs.FS)) {
	t.Helper()
	dir := t.TempDir()
	ffs, set, src, ref := faultWorld(t, dir)
	gen := set.Generation()
	baseSegTriples := src.SegmentTriples()

	inject(ffs)
	if err := set.Compact(); err == nil {
		t.Fatal("compaction survived the injected fault")
	}
	// The serving view is untouched: every triple, including the delta
	// that failed to flush, still answers.
	assertStoreEqual(t, src, ref, 15)
	if src.SegmentTriples() != baseSegTriples {
		t.Fatalf("torn compaction swapped segments in: %d triples, want %d",
			src.SegmentTriples(), baseSegTriples)
	}

	// Power cut, restart over the same directory.
	ffs.Revive()
	re, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatalf("reopen after torn compaction: %v", err)
	}
	defer re.Close()
	if re.Generation() != gen {
		t.Fatalf("reopened generation %d, want pre-tear %d", re.Generation(), gen)
	}
	rs := re.Source("ds1")
	if rs == nil {
		t.Fatal("reopened set lost ds1")
	}
	// Only the durable prefix survives: the compacted baseline, not the
	// torn delta (it was never acknowledged as checkpointed).
	if rs.Size() != baseSegTriples {
		t.Fatalf("reopened size %d, want durable baseline %d", rs.Size(), baseSegTriples)
	}
}

func TestCompactionTornWrite(t *testing.T) {
	assertTornCompaction(t, func(f *faultfs.FS) { f.ShortWriteAt(f.Writes() + 1) })
}

func TestCompactionFailedSync(t *testing.T) {
	assertTornCompaction(t, func(f *faultfs.FS) { f.FailAllSyncs(true) })
}

func TestCompactionFailedRename(t *testing.T) {
	assertTornCompaction(t, func(f *faultfs.FS) { f.FailRenames(true) })
}

func TestCompactionCrashMidWrite(t *testing.T) {
	assertTornCompaction(t, func(f *faultfs.FS) { f.CrashAfterWrites(2) })
}

// TestMmapFaultFallsBackToHeap: a vetoed mmap must not fail the open —
// the segment loads through the FS into the heap and serves
// identically.
func TestMmapFaultFallsBackToHeap(t *testing.T) {
	dir := t.TempDir()
	ffs, set, src, ref := faultWorld(t, dir)
	if err := set.Compact(); err != nil {
		t.Fatal(err)
	}
	ffs.FailMmaps(true)
	re, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatalf("open with mmap fault: %v", err)
	}
	defer re.Close()
	assertStoreEqual(t, re.Source("ds1"), ref, 15)
	_ = src
}
