package wal_test

import (
	"testing"

	"alex/internal/faultfs"
	"alex/internal/wal"
)

// TestCheckpointSurvivesCrash: a checkpoint Checkpoint returned from
// is on disk after a crash, under its name. The journal it absorbed was
// reset, so a checkpoint rename the crash lost would take every record
// it held with it; faultfs loses a rename no SyncDir followed, so this
// fails if WriteFileAtomic stops syncing the directory.
func TestCheckpointSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil)
	l, err := wal.Open(dir, ffs)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{"a", "b", "c"} {
		if _, err := l.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint(3, []byte("state-3")); err != nil {
		t.Fatal(err)
	}
	ffs.CrashAfterWrites(0)
	l.Close() //nolint:errcheck // the crashed process's handle
	ffs.Revive()

	l, err = wal.Open(dir, ffs)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	seq, state, ok, err := l.LatestCheckpoint()
	if err != nil || !ok || seq != 3 || string(state) != "state-3" {
		t.Fatalf("after the crash: checkpoint seq %d %q (found %v, %v); want seq 3 %q", seq, state, ok, err, "state-3")
	}
	if l.LastSeq() != 3 {
		t.Fatalf("LastSeq %d after the crash, want 3", l.LastSeq())
	}
}
