// Package faultfs wraps a wal.FS with injectable storage faults, the
// file-system half of the chaos harness: fsync failures, short (torn)
// writes, and crash points after which every operation fails as if the
// process had been killed. Crash-recovery tests use it to cut power at
// arbitrary byte positions and then assert that recovery preserves
// every acknowledged record.
package faultfs

import (
	"errors"
	"io"
	"sync"

	"alex/internal/wal"
)

// ErrInjected is the error returned by operations failed on purpose.
var ErrInjected = errors.New("faultfs: injected fault")

// ErrCrashed is returned by every operation after the crash point: the
// simulated process is dead and can do no further I/O.
var ErrCrashed = errors.New("faultfs: crashed")

// FS wraps an inner wal.FS and injects faults per the configured
// counters. The zero value is not usable; call New. All methods are
// safe for concurrent use.
type FS struct {
	inner wal.FS

	mu            sync.Mutex
	writes        int // completed Write calls across all files
	syncs         int // completed Sync calls across all files
	closes        int // completed Close calls across all files
	renames       int // completed Rename calls
	failSyncAt    int // fail the nth sync (1-based); 0 = never
	failSyncAll   bool
	failCloseAt   int // fail the nth close (1-based); 0 = never
	failCloseAll  bool
	failRenameAt  int // fail the nth rename (1-based); 0 = never
	failRenameAll bool
	failMmaps     bool
	shortAt       int // tear the nth write in half (1-based); 0 = never
	crashAfter    int // crash once this many writes have completed; -1 = never
	crashed       bool
}

// New wraps inner (nil for the real OS).
func New(inner wal.FS) *FS {
	if inner == nil {
		inner = wal.OS{}
	}
	return &FS{inner: inner, crashAfter: -1}
}

// FailSyncAt makes the nth Sync (1-based, counted across all files)
// return ErrInjected. Later syncs succeed.
func (f *FS) FailSyncAt(n int) { f.mu.Lock(); f.failSyncAt = n; f.mu.Unlock() }

// FailAllSyncs makes every subsequent Sync return ErrInjected,
// simulating a disk that accepts writes but cannot persist them.
func (f *FS) FailAllSyncs(fail bool) { f.mu.Lock(); f.failSyncAll = fail; f.mu.Unlock() }

// FailCloses makes every subsequent file Close return ErrInjected after
// releasing the handle, the shape of a flush-on-close failure (full
// disk, NFS). Revive clears it.
func (f *FS) FailCloses(fail bool) { f.mu.Lock(); f.failCloseAll = fail; f.mu.Unlock() }

// FailCloseAt makes the nth file Close (1-based, counted across all
// files) return ErrInjected after releasing the handle. Later closes
// succeed.
func (f *FS) FailCloseAt(n int) { f.mu.Lock(); f.failCloseAt = n; f.mu.Unlock() }

// ShortWriteAt makes the nth Write (1-based) persist only the first
// half of its buffer and return ErrInjected: a torn record.
func (f *FS) ShortWriteAt(n int) { f.mu.Lock(); f.shortAt = n; f.mu.Unlock() }

// FailRenameAt makes the nth Rename (1-based) return ErrInjected
// without renaming: the atomic-commit step of a segment or manifest
// write fails. Later renames succeed.
func (f *FS) FailRenameAt(n int) { f.mu.Lock(); f.failRenameAt = n; f.mu.Unlock() }

// FailRenames makes every subsequent Rename return ErrInjected.
// Revive clears it.
func (f *FS) FailRenames(fail bool) { f.mu.Lock(); f.failRenameAll = fail; f.mu.Unlock() }

// FailMmaps makes every subsequent segment mmap fail with ErrInjected
// (surfaced through the MmapFault hook the store probes before
// mapping). Revive clears it.
func (f *FS) FailMmaps(fail bool) { f.mu.Lock(); f.failMmaps = fail; f.mu.Unlock() }

// CrashAfterWrites kills the simulated process once n more writes have
// completed: the nth write still succeeds, then every subsequent
// operation on the FS and its files returns ErrCrashed. n = 0 crashes
// immediately.
func (f *FS) CrashAfterWrites(n int) {
	f.mu.Lock()
	f.crashAfter = f.writes + n
	f.crashed = f.writes >= f.crashAfter
	f.mu.Unlock()
}

// Revive clears the crash state (the "process" restarts over the same
// disk). Injected sync/write faults are cleared too.
func (f *FS) Revive() {
	f.mu.Lock()
	f.crashed = false
	f.crashAfter = -1
	f.failSyncAt = 0
	f.failSyncAll = false
	f.failCloseAt = 0
	f.failCloseAll = false
	f.failRenameAt = 0
	f.failRenameAll = false
	f.failMmaps = false
	f.shortAt = 0
	f.mu.Unlock()
}

// Writes returns the number of completed file writes, the coordinate
// system of CrashAfterWrites and ShortWriteAt.
func (f *FS) Writes() int { f.mu.Lock(); defer f.mu.Unlock(); return f.writes }

func (f *FS) dead() bool { f.mu.Lock(); defer f.mu.Unlock(); return f.crashed }

func (f *FS) MkdirAll(dir string) error {
	if f.dead() {
		return ErrCrashed
	}
	return f.inner.MkdirAll(dir)
}

func (f *FS) OpenAppend(name string) (wal.File, error) {
	if f.dead() {
		return nil, ErrCrashed
	}
	inner, err := f.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &file{fs: f, inner: inner}, nil
}

func (f *FS) Create(name string) (wal.File, error) {
	if f.dead() {
		return nil, ErrCrashed
	}
	inner, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &file{fs: f, inner: inner}, nil
}

func (f *FS) Open(name string) (io.ReadCloser, error) {
	if f.dead() {
		return nil, ErrCrashed
	}
	return f.inner.Open(name)
}

func (f *FS) Rename(oldname, newname string) error {
	f.mu.Lock()
	if f.crashed {
		f.mu.Unlock()
		return ErrCrashed
	}
	f.renames++
	fail := f.failRenameAll || (f.failRenameAt > 0 && f.renames == f.failRenameAt)
	f.mu.Unlock()
	if fail {
		return ErrInjected
	}
	return f.inner.Rename(oldname, newname)
}

// MmapFault is the store's pre-mmap hook: it vetoes the mapping when a
// crash or mmap fault is injected. A crashed process cannot map files;
// an injected mmap failure drives the store onto its heap-read
// fallback.
func (f *FS) MmapFault(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	if f.failMmaps {
		return ErrInjected
	}
	return nil
}

func (f *FS) Remove(name string) error {
	if f.dead() {
		return ErrCrashed
	}
	return f.inner.Remove(name)
}

func (f *FS) Truncate(name string, size int64) error {
	if f.dead() {
		return ErrCrashed
	}
	return f.inner.Truncate(name, size)
}

func (f *FS) ReadDir(dir string) ([]string, error) {
	if f.dead() {
		return nil, ErrCrashed
	}
	return f.inner.ReadDir(dir)
}

func (f *FS) SyncDir(dir string) error {
	if f.dead() {
		return ErrCrashed
	}
	return f.inner.SyncDir(dir)
}

// file wraps a wal.File, consulting the FS fault counters on every
// write and sync.
type file struct {
	fs    *FS
	inner wal.File
}

func (w *file) Write(p []byte) (int, error) {
	w.fs.mu.Lock()
	if w.fs.crashed {
		w.fs.mu.Unlock()
		return 0, ErrCrashed
	}
	w.fs.writes++
	n := w.fs.writes
	short := w.fs.shortAt == n
	crashNow := w.fs.crashAfter >= 0 && w.fs.writes >= w.fs.crashAfter
	if crashNow {
		w.fs.crashed = true
	}
	w.fs.mu.Unlock()
	if short {
		half := len(p) / 2
		w.inner.Write(p[:half]) //nolint:errcheck // the injected error wins
		return half, ErrInjected
	}
	return w.inner.Write(p)
}

func (w *file) Sync() error {
	w.fs.mu.Lock()
	if w.fs.crashed {
		w.fs.mu.Unlock()
		return ErrCrashed
	}
	w.fs.syncs++
	fail := w.fs.failSyncAll || (w.fs.failSyncAt > 0 && w.fs.syncs == w.fs.failSyncAt)
	w.fs.mu.Unlock()
	if fail {
		return ErrInjected
	}
	return w.inner.Sync()
}

func (w *file) Close() error {
	// Close works even when crashed: the real kernel closes descriptors
	// of dead processes too, and recovery code needs to release handles.
	// An injected close failure still releases the inner handle — the
	// kernel frees the descriptor even when close(2) reports an error.
	w.fs.mu.Lock()
	w.fs.closes++
	fail := w.fs.failCloseAll || (w.fs.failCloseAt > 0 && w.fs.closes == w.fs.failCloseAt)
	w.fs.mu.Unlock()
	err := w.inner.Close()
	if fail {
		return ErrInjected
	}
	return err
}
