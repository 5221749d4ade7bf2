package faultfs

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"testing"

	"alex/internal/wal"
)

func openLog(t *testing.T, dir string, fs wal.FS) *wal.Log {
	t.Helper()
	l, err := wal.Open(dir, fs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func countReplay(t *testing.T, dir string) int {
	t.Helper()
	l := openLog(t, dir, nil)
	n, err := l.Replay(0, func(wal.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestFsyncFailureNotAcked: an append whose fsync fails must return an
// error (the server then refuses the 202 ack) and must not surface as a
// record after recovery.
func TestFsyncFailureNotAcked(t *testing.T) {
	dir := t.TempDir()
	fs := New(nil)
	l := openLog(t, dir, fs)
	if _, err := l.Append([]byte("acked-1")); err != nil {
		t.Fatal(err)
	}
	fs.FailSyncAt(2)
	if _, err := l.Append([]byte("lost")); !errors.Is(err, ErrInjected) {
		t.Fatalf("append with failing fsync: err = %v, want ErrInjected", err)
	}
	// The log repaired itself: the next append works and recovery sees
	// exactly the acknowledged records.
	if _, err := l.Append([]byte("acked-2")); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
	l.Close()
	if n := countReplay(t, dir); n != 2 {
		t.Fatalf("recovered %d records, want the 2 acked ones", n)
	}
}

// TestShortWriteRepaired: a torn write (power loss mid-record) must not
// corrupt earlier records, and the log keeps working afterwards.
func TestShortWriteRepaired(t *testing.T) {
	dir := t.TempDir()
	fs := New(nil)
	l := openLog(t, dir, fs)
	if _, err := l.Append([]byte("before")); err != nil {
		t.Fatal(err)
	}
	fs.ShortWriteAt(2)
	if _, err := l.Append([]byte("torn")); err == nil {
		t.Fatal("short write reported success")
	}
	if _, err := l.Append([]byte("after")); err != nil {
		t.Fatalf("append after torn write: %v", err)
	}
	l.Close()
	if n := countReplay(t, dir); n != 2 {
		t.Fatalf("recovered %d records, want 2 (torn one dropped)", n)
	}
}

// TestCrashAtEveryWrite simulates power loss at every successive write
// boundary: whatever survives on disk must recover to a clean prefix of
// the acknowledged records.
func TestCrashAtEveryWrite(t *testing.T) {
	for crashAt := 0; crashAt <= 6; crashAt++ {
		dir := t.TempDir()
		fs := New(nil)
		l, err := wal.Open(dir, fs)
		if err != nil {
			t.Fatal(err)
		}
		fs.CrashAfterWrites(crashAt)
		acked := 0
		for i := 1; i <= 5; i++ {
			if _, err := l.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
				break
			}
			acked++
		}
		l.Close()
		fs.Revive()
		n := countReplay(t, dir)
		if n < acked {
			t.Fatalf("crash@%d: recovered %d < %d acked records", crashAt, n, acked)
		}
		if n > acked+1 {
			// At most one in-flight (unacked) record can survive whole.
			t.Fatalf("crash@%d: recovered %d records with only %d acked", crashAt, n, acked)
		}
	}
}

// TestCrashDuringCheckpoint: dying anywhere inside the checkpoint
// sequence must leave either the old state or the new one recoverable,
// with the journal records still covering the difference.
func TestCrashDuringCheckpoint(t *testing.T) {
	for extra := 0; extra <= 3; extra++ {
		dir := t.TempDir()
		fs := New(nil)
		l, err := wal.Open(dir, fs)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 3; i++ {
			if _, err := l.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		fs.CrashAfterWrites(extra)         // checkpoint write #1 is the state blob
		l.Checkpoint(3, []byte("state@3")) //nolint:errcheck // crash expected
		l.Close()
		fs.Revive()

		l2 := openLog(t, dir, nil)
		seq, _, ok, err := l2.LatestCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		after := uint64(0)
		if ok {
			after = seq
		}
		replayed, err := l2.Replay(after, func(wal.Record) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if int(after)+replayed < 3 {
			t.Fatalf("crash extra=%d: checkpoint@%d + %d replayed < 3 acked records", extra, after, replayed)
		}
	}
}

// TestCrashLosesUnsyncedRenames: a crash undoes every rename no SyncDir
// followed, the replaced file's bytes included, and keeps the ones a
// SyncDir made durable; a handle counts as open until it is closed.
func TestCrashLosesUnsyncedRenames(t *testing.T) {
	dir := t.TempDir()
	ffs := New(nil)
	write := func(name, data string) {
		t.Helper()
		if err := wal.WriteFile(ffs, filepath.Join(dir, name), []byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	read := func(name string) string {
		t.Helper()
		data, err := wal.ReadFile(ffs, filepath.Join(dir, name))
		if errors.Is(err, fs.ErrNotExist) {
			return "absent"
		}
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	rename := func(from, to string) {
		t.Helper()
		if err := ffs.Rename(filepath.Join(dir, from), filepath.Join(dir, to)); err != nil {
			t.Fatal(err)
		}
	}
	write("kept", "old")
	write("kept.tmp", "new")
	rename("kept.tmp", "kept")
	if err := ffs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	write("lost", "old")
	write("lost.tmp", "new")
	rename("lost.tmp", "lost")
	write("fresh.tmp", "new")
	rename("fresh.tmp", "fresh")
	f, err := ffs.Create(filepath.Join(dir, "open"))
	if err != nil {
		t.Fatal(err)
	}
	if n := ffs.OpenHandles(); n != 1 {
		t.Fatalf("%d open handles, want 1", n)
	}
	ffs.CrashAfterWrites(0)
	f.Close() //nolint:errcheck // the crashed process's handle
	if n := ffs.OpenHandles(); n != 0 {
		t.Fatalf("%d open handles after Close, want 0", n)
	}
	ffs.Revive()
	for name, want := range map[string]string{
		"kept": "new", "kept.tmp": "absent",
		"lost": "old", "lost.tmp": "new",
		"fresh": "absent", "fresh.tmp": "new",
	} {
		if got := read(name); got != want {
			t.Errorf("after the crash %s holds %q, want %q", name, got, want)
		}
	}
}
