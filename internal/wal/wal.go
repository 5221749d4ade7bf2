// Package wal is the durability layer of alexd: a write-ahead feedback
// journal plus one atomic full-state checkpoint, over a durable-file
// layer (file.go) the segment store shares.
//
// The contract backing the serving layer's 202 ack on /feedback is:
// every record handed to Append is on stable storage (written and
// fsynced) before Append returns. Restart then reconstructs exactly the
// acknowledged state by loading the checkpoint and replaying the
// journal records that came after it.
//
// On-disk layout inside the log directory:
//
//	journal.wal             records: len | crc | seq | payload (file.go)
//	checkpoint-<seq>.ckpt   one checkpointed state blob, one record
//
// Every record carries a monotonically increasing sequence number. A
// checkpoint file is named (and framed) with the sequence number of the
// last record its state includes, which makes replay idempotent: records
// with seq <= checkpoint seq are skipped even if a crash left them in
// the journal. Torn or corrupt journal tails (short write, bad CRC,
// garbage) are detected on open and truncated away; everything before
// the first bad byte is recovered. A checkpoint is never a torn write
// (WriteFileAtomic), and the journal it absorbed is reset after it, so
// one that does not read back is an error, not a reason to load an
// older state: that would drop every record in between.
//
// All file operations go through the FS interface so tests can inject
// fsync failures, short writes and crash points (internal/faultfs).
package wal

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
)

// File is the writable-file surface the log needs; *os.File satisfies
// it via osFile.
type File interface {
	io.Writer
	// Sync flushes the file to stable storage (fsync).
	Sync() error
	Close() error
}

// FS abstracts the file operations of the log so faults can be
// injected. OS is the real implementation.
type FS interface {
	MkdirAll(dir string) error
	// OpenAppend opens name for appending, creating it if absent.
	OpenAppend(name string) (File, error)
	// Create opens name truncated to zero length.
	Create(name string) (File, error)
	Open(name string) (io.ReadCloser, error)
	Rename(oldname, newname string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	// ReadDir returns the file names (not paths) inside dir.
	ReadDir(dir string) ([]string, error)
	// SyncDir fsyncs the directory, making renames within it durable.
	SyncDir(dir string) error
}

const (
	journalName      = "journal.wal"
	checkpointPrefix = "checkpoint-"
	checkpointSuffix = ".ckpt"
	tmpSuffix        = ".tmp"

	// maxRecord guards the scanner against absurd length prefixes from
	// corrupt headers, and so bounds what Append accepts: the scanner
	// would read a longer record as a torn tail and truncate the journal
	// there, records acked after it included.
	maxRecord = 64 << 20
)

// Record is one journal entry: an opaque payload with its sequence
// number.
type Record struct {
	Seq  uint64
	Data []byte
}

// ErrBroken is returned by Append after an unrecoverable write failure:
// the journal file could not be repaired to a clean record boundary, so
// further appends would be unreadable.
var ErrBroken = fmt.Errorf("wal: journal broken (unrepaired partial write)")

// Log is a write-ahead log over one directory. It is not safe for
// concurrent use; callers serialize access (the server does so with a
// mutex, which serialises competing fsyncs rather than batching them:
// every Append syncs once).
type Log struct {
	fs     FS
	dir    string
	f      File  // append handle on the journal
	size   int64 // bytes of valid records in the journal
	seq    uint64
	broken bool
	// pending holds the records scanned at Open until Replay consumes
	// them.
	pending []Record
}

// Open opens (or creates) the log in dir. The journal is scanned and
// any torn or corrupt tail truncated; the surviving records are
// available through Replay exactly once. fs == nil uses the operating
// system.
func Open(dir string, fs FS) (*Log, error) {
	if fs == nil {
		fs = OS{}
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("wal: mkdir %s: %w", dir, err)
	}
	l := &Log{fs: fs, dir: dir}
	if err := l.scan(); err != nil {
		return nil, err
	}
	f, err := fs.OpenAppend(l.journalPath())
	if err != nil {
		return nil, fmt.Errorf("wal: open journal: %w", err)
	}
	l.f = f
	return l, nil
}

func (l *Log) journalPath() string { return filepath.Join(l.dir, journalName) }

// LastSeq returns the sequence number of the newest record ever
// appended (or recovered), 0 if none.
func (l *Log) LastSeq() uint64 { return l.seq }

// scan reads the journal, validates records, truncates a bad tail, and
// stashes the valid records for Replay. A missing journal is an empty
// log. The checkpoint's seq, taken from its file name, also advances
// seq so new appends never reuse numbers from journal records a
// checkpoint absorbed.
func (l *Log) scan() error {
	ckpt, _, err := l.newestCheckpoint()
	if err != nil {
		return err
	}
	l.seq = ckpt
	data, err := ReadFile(l.fs, l.journalPath())
	if errors.Is(err, fs.ErrNotExist) {
		return nil // no journal yet: an empty log
	}
	if err != nil {
		// Any other error (permissions, transient I/O) must fail startup
		// loudly: treating it as "no journal" would silently discard
		// acked records and reissue their sequence numbers.
		return fmt.Errorf("wal: read journal: %w", err)
	}
	for int(l.size) < len(data) {
		seq, payload, n, err := DecodeRecord(data[l.size:])
		if err != nil || len(payload) > maxRecord {
			break // torn tail, corrupt length or corrupt record
		}
		l.pending = append(l.pending, Record{Seq: seq, Data: payload})
		l.seq = max(l.seq, seq)
		l.size += int64(n)
	}
	if int(l.size) < len(data) {
		if err := l.fs.Truncate(l.journalPath(), l.size); err != nil {
			return fmt.Errorf("wal: truncate corrupt tail: %w", err)
		}
	}
	return nil
}

// Replay hands every recovered journal record with seq > after to fn,
// in order. It consumes the records scanned at Open; calling it again
// replays nothing. fn returning an error aborts the replay.
func (l *Log) Replay(after uint64, fn func(Record) error) (int, error) {
	recs := l.pending
	l.pending = nil
	n := 0
	for _, r := range recs {
		if r.Seq <= after {
			continue
		}
		if err := fn(r); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Append writes payload as the next record and fsyncs before returning:
// when Append returns nil the record is durable. A payload longer than
// maxRecord is refused before anything is written, and the journal stays
// appendable. On a write or sync failure the journal is rolled back to
// the previous record boundary so later appends stay readable; if that
// repair fails the log refuses further appends with ErrBroken.
func (l *Log) Append(payload []byte) (uint64, error) {
	if l.broken {
		return 0, ErrBroken
	}
	if len(payload) > maxRecord {
		return 0, fmt.Errorf("wal: append: a %d-byte record exceeds the %d-byte limit", len(payload), maxRecord)
	}
	seq := l.seq + 1
	buf := EncodeRecord(seq, payload)
	_, err := l.f.Write(buf)
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		l.repair()
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.seq = seq
	l.size += int64(len(buf))
	return seq, nil
}

// repair rolls the journal file back to the last known-good record
// boundary after a failed append, reopening the append handle. Failure
// to repair marks the log broken.
func (l *Log) repair() {
	if err := l.f.Close(); err != nil {
		// A failed close leaves the handle's state unknown; the torn
		// tail stays on disk for the next Open's scan to truncate.
		l.broken = true
		return
	}
	if err := l.fs.Truncate(l.journalPath(), l.size); err != nil {
		l.broken = true
		return
	}
	f, err := l.fs.OpenAppend(l.journalPath())
	if err != nil {
		l.broken = true
		return
	}
	l.f = f
}

func checkpointName(seq uint64) string {
	return fmt.Sprintf("%s%020d%s", checkpointPrefix, seq, checkpointSuffix)
}

func parseCheckpointName(name string) (uint64, bool) {
	mid, pre := strings.CutPrefix(name, checkpointPrefix)
	mid, suf := strings.CutSuffix(mid, checkpointSuffix)
	seq, err := strconv.ParseUint(mid, 10, 64)
	return seq, pre && suf && err == nil
}

// Checkpoint durably stores state as the full log state up to and
// including record seq, then resets the journal. The write is atomic
// (WriteFileAtomic): a crash at any point leaves either the previous
// checkpoint or the new one, never a partial file that would be
// trusted. After a successful checkpoint the journal is emptied —
// replay starts from this state — and every other checkpoint is
// removed.
func (l *Log) Checkpoint(seq uint64, state []byte) error {
	if err := WriteFileAtomic(l.fs, filepath.Join(l.dir, checkpointName(seq)), EncodeRecord(seq, state)); err != nil {
		return fmt.Errorf("wal: checkpoint write: %w", err)
	}
	// The checkpoint is durable; the journal records it absorbed are no
	// longer needed. A crash before (or during) this reset is harmless:
	// replay skips seqs the checkpoint covers.
	if err := l.f.Close(); err != nil {
		// The checkpoint is already durable, but the journal handle is
		// now in an unknown state: refuse appends until the next reset
		// or reopen succeeds.
		l.broken = true
		return fmt.Errorf("wal: journal reset close: %w", err)
	}
	nf, err := l.fs.Create(l.journalPath())
	if err != nil {
		return fmt.Errorf("wal: journal reset: %w", err)
	}
	l.f = nf
	l.size = 0
	l.broken = false
	l.prune(seq)
	return nil
}

// prune removes every checkpoint but seq's and any leftover temp file.
// Best-effort: a stale file only costs space, since recovery reads the
// newest checkpoint alone.
func (l *Log) prune(seq uint64) {
	names, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return
	}
	for _, name := range names {
		if s, ok := parseCheckpointName(name); (ok && s != seq) || strings.HasSuffix(name, tmpSuffix) {
			l.fs.Remove(filepath.Join(l.dir, name))
		}
	}
}

// newestCheckpoint returns the highest seq a checkpoint file is named
// with; ok is false when there is none.
func (l *Log) newestCheckpoint() (seq uint64, ok bool, err error) {
	names, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return 0, false, fmt.Errorf("wal: list %s: %w", l.dir, err)
	}
	for _, name := range names {
		if s, isCk := parseCheckpointName(name); isCk && (!ok || s > seq) {
			seq, ok = s, true
		}
	}
	return seq, ok, nil
}

// LatestCheckpoint loads the newest checkpoint; ok is false when there
// is none. A newest checkpoint that does not read back whole, with its
// CRC and its name's seq, is an error naming the file: the journal
// was reset after it was written, so no older state covers what it
// holds.
func (l *Log) LatestCheckpoint() (seq uint64, state []byte, ok bool, err error) {
	seq, ok, err = l.newestCheckpoint()
	if err != nil || !ok {
		return 0, nil, false, err
	}
	name := filepath.Join(l.dir, checkpointName(seq))
	data, err := ReadFile(l.fs, name)
	if err == nil {
		var got uint64
		var n int
		got, state, n, err = DecodeRecord(data)
		if err == nil && (n != len(data) || got != seq) {
			err = fmt.Errorf("a %d-byte record for seq %d in %d bytes", n, got, len(data))
		}
	}
	if err != nil {
		return 0, nil, false, fmt.Errorf("wal: checkpoint %s does not read back: %w", name, err)
	}
	return seq, state, true, nil
}

// Close releases the journal handle. It does not checkpoint; callers
// that want a replay-free restart checkpoint first.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
