package wal_test

import (
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"alex/internal/faultfs"
	"alex/internal/wal"
)

// Close errors on the journal and checkpoint files used to be silently
// dropped (the bug syncerr now flags); these tests pin the fixed
// behavior: a failed close surfaces to the caller and the log refuses
// to keep appending on a handle in an unknown state.

// TestCheckpointResetCloseFailure injects a failure on the journal
// handle's close during Checkpoint's journal reset. The checkpoint is
// already durable at that point, so the error must surface, appends
// must be refused, and a reopen must recover the checkpointed state.
func TestCheckpointResetCloseFailure(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.New(nil)
	l, err := wal.Open(dir, fs)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := l.Append([]byte("fed"))
	if err != nil {
		t.Fatal(err)
	}
	// Closes inside Checkpoint: #1 the checkpoint temp file, #2 the
	// journal handle being reset.
	fs.FailCloseAt(2)
	err = l.Checkpoint(seq, []byte("state"))
	if err == nil {
		t.Fatal("Checkpoint succeeded despite journal close failure")
	}
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Checkpoint error = %v, want wrapped ErrInjected", err)
	}
	if !strings.Contains(err.Error(), "journal reset close") {
		t.Fatalf("Checkpoint error = %v, want journal reset close context", err)
	}
	if _, err := l.Append([]byte("more")); !errors.Is(err, wal.ErrBroken) {
		t.Fatalf("Append after failed reset close = %v, want ErrBroken", err)
	}

	// The checkpoint itself was durable: a restart recovers it and the
	// log accepts appends again.
	fs.Revive()
	l2, err := wal.Open(dir, fs)
	if err != nil {
		t.Fatal(err)
	}
	ckSeq, state, ok, err := l2.LatestCheckpoint()
	if err != nil || !ok {
		t.Fatalf("LatestCheckpoint = ok %v, err %v", ok, err)
	}
	if ckSeq != seq || string(state) != "state" {
		t.Fatalf("recovered checkpoint (%d, %q), want (%d, %q)", ckSeq, state, seq, "state")
	}
	if _, err := l2.Append([]byte("after restart")); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
}

// TestRepairCloseFailureMarksBroken forces an append's fsync to fail so
// repair runs, then fails the close inside repair: the log must mark
// itself broken instead of appending through a handle it could not
// roll back.
func TestRepairCloseFailureMarksBroken(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.New(nil)
	l, err := wal.Open(dir, fs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("ok")); err != nil { // sync #1
		t.Fatal(err)
	}
	fs.FailSyncAt(2)
	fs.FailCloses(true)
	if _, err := l.Append([]byte("torn")); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Append with failing sync = %v, want wrapped ErrInjected", err)
	}
	if _, err := l.Append([]byte("more")); !errors.Is(err, wal.ErrBroken) {
		t.Fatalf("Append after failed repair = %v, want ErrBroken", err)
	}

	// Restart over the same directory: the acked record must survive.
	fs.Revive()
	l2, err := wal.Open(dir, fs)
	if err != nil {
		t.Fatal(err)
	}
	var recovered []string
	if _, err := l2.Replay(0, func(r wal.Record) error {
		recovered = append(recovered, string(r.Data))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(recovered) == 0 || recovered[0] != "ok" {
		t.Fatalf("recovered %q, want the acked record first", recovered)
	}
}

// TestCheckpointTempFileFailure fails the checkpoint temp file's fsync,
// then its close. Either way the checkpoint was not made: Checkpoint
// says so, leaves neither a checkpoint nor its temp file behind, and the
// journal it would have reset keeps every record and takes appends.
func TestCheckpointTempFileFailure(t *testing.T) {
	cases := []struct {
		name   string
		inject func(*faultfs.FS)
	}{
		{"sync", func(fs *faultfs.FS) { fs.FailSyncAt(2) }},   // #1 is the append's
		{"close", func(fs *faultfs.FS) { fs.FailCloseAt(1) }}, // #1 is the temp file's
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fs := faultfs.New(nil)
			l, err := wal.Open(dir, fs)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := l.Append([]byte("fed"))
			if err != nil {
				t.Fatal(err)
			}
			tc.inject(fs)
			if err := l.Checkpoint(seq, []byte("state")); !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("Checkpoint with a failing temp file %s = %v, want wrapped ErrInjected", tc.name, err)
			}
			if _, _, ok, err := l.LatestCheckpoint(); ok || err != nil {
				t.Fatalf("LatestCheckpoint after a failed checkpoint = ok %v, err %v; want none", ok, err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if strings.HasSuffix(e.Name(), ".tmp") {
					t.Fatalf("failed checkpoint left its temp file %s", e.Name())
				}
			}
			if _, err := l.Append([]byte("more")); err != nil {
				t.Fatalf("Append after a failed checkpoint: %v", err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			l2, err := wal.Open(dir, fs)
			if err != nil {
				t.Fatal(err)
			}
			var recovered []string
			if _, err := l2.Replay(0, func(r wal.Record) error {
				recovered = append(recovered, string(r.Data))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if want := []string{"fed", "more"}; !reflect.DeepEqual(recovered, want) {
				t.Fatalf("reopen replayed %q, want %q", recovered, want)
			}
		})
	}
}
