// Package wal is the durability layer of alexd: a write-ahead feedback
// journal plus atomic full-state checkpoints.
//
// The contract backing the serving layer's 202 ack on /feedback is:
// every record handed to Append is on stable storage (written and
// fsynced) before Append returns. Restart then reconstructs exactly the
// acknowledged state by loading the newest valid checkpoint and
// replaying the journal records that came after it.
//
// On-disk layout inside the log directory:
//
//	journal.wal             length-prefixed, CRC32-checksummed records
//	checkpoint-<seq>.ckpt   one checkpointed state blob, same framing
//
// Every record carries a monotonically increasing sequence number. A
// checkpoint file is named (and framed) with the sequence number of the
// last record its state includes, which makes replay idempotent: records
// with seq <= checkpoint seq are skipped even if a crash left them in
// the journal. Torn or corrupt journal tails (short write, bad CRC,
// garbage) are detected on open and truncated away; everything before
// the first bad byte is recovered.
//
// All file operations go through the FS interface so tests can inject
// fsync failures, short writes and crash points (internal/faultfs).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
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

	// headerSize is len(uint32) | crc(uint32) | seq(uint64).
	headerSize = 16
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
// mutex, which also batches competing fsyncs).
type Log struct {
	fs     FS
	dir    string
	f      File  // append handle on the journal
	size   int64 // bytes of valid records in the journal
	seq    uint64
	keep   int // checkpoint files to retain
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
	l := &Log{fs: fs, dir: dir, keep: 2}
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
// log. The checkpoint floor also advances seq so new appends never
// reuse numbers from journal records a checkpoint absorbed.
func (l *Log) scan() error {
	if seq, _, ok, _ := l.LatestCheckpoint(); ok && seq > l.seq {
		l.seq = seq
	}
	rc, err := l.fs.Open(l.journalPath())
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil // no journal yet: an empty log
		}
		// Any other error (permissions, transient I/O) must fail startup
		// loudly: treating it as "no journal" would silently discard
		// acked records and reissue their sequence numbers.
		return fmt.Errorf("wal: open journal: %w", err)
	}
	data, err := io.ReadAll(rc)
	if cerr := rc.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: read journal: %w", err)
	}
	valid := int64(0)
	for int64(len(data))-valid >= headerSize {
		n := binary.LittleEndian.Uint32(data[valid:])
		sum := binary.LittleEndian.Uint32(data[valid+4:])
		if n > maxRecord || valid+headerSize+int64(n) > int64(len(data)) {
			break // torn tail or corrupt length
		}
		body := data[valid+8 : valid+headerSize+int64(n)] // seq || payload
		if crc32.ChecksumIEEE(body) != sum {
			break // corrupt record
		}
		seq := binary.LittleEndian.Uint64(body)
		payload := append([]byte(nil), body[8:]...)
		l.pending = append(l.pending, Record{Seq: seq, Data: payload})
		if seq > l.seq {
			l.seq = seq
		}
		valid += headerSize + int64(n)
	}
	l.size = valid
	if valid < int64(len(data)) {
		if err := l.fs.Truncate(l.journalPath(), valid); err != nil {
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

func encodeRecord(seq uint64, payload []byte) []byte {
	buf := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint64(buf[8:], seq)
	copy(buf[headerSize:], payload)
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(buf[8:]))
	return buf
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
	buf := encodeRecord(seq, payload)
	_, werr := l.f.Write(buf)
	var serr error
	if werr == nil {
		serr = l.f.Sync()
	}
	if werr != nil || serr != nil {
		err := werr
		if err == nil {
			err = serr
		}
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
	if !strings.HasPrefix(name, checkpointPrefix) || !strings.HasSuffix(name, checkpointSuffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, checkpointPrefix), checkpointSuffix)
	var seq uint64
	if _, err := fmt.Sscanf(mid, "%d", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// Checkpoint durably stores state as the full log state up to and
// including record seq, then resets the journal. The write is atomic
// (temp file + fsync + rename + directory fsync): a crash at any point
// leaves either the previous checkpoint or the new one, never a partial
// file that would be trusted. After a successful checkpoint the journal
// is emptied — replay starts from this state — and checkpoints older
// than the retained window are pruned.
func (l *Log) Checkpoint(seq uint64, state []byte) error {
	final := filepath.Join(l.dir, checkpointName(seq))
	tmp := final + tmpSuffix
	f, err := l.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: checkpoint create: %w", err)
	}
	_, werr := f.Write(encodeRecord(seq, state))
	var serr error
	if werr == nil {
		serr = f.Sync()
	}
	cerr := f.Close()
	if werr != nil || serr != nil || cerr != nil {
		l.fs.Remove(tmp)
		err := werr
		if err == nil {
			err = serr
		}
		if err == nil {
			err = cerr
		}
		return fmt.Errorf("wal: checkpoint write: %w", err)
	}
	if err := l.fs.Rename(tmp, final); err != nil {
		l.fs.Remove(tmp)
		return fmt.Errorf("wal: checkpoint rename: %w", err)
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return fmt.Errorf("wal: checkpoint dir sync: %w", err)
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

// prune removes stale checkpoint files (keeping the newest l.keep) and
// any leftover temp files. Best-effort: pruning failures are ignored —
// stale files only cost space.
func (l *Log) prune(latest uint64) {
	names, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return
	}
	var seqs []uint64
	for _, name := range names {
		if strings.HasSuffix(name, tmpSuffix) {
			l.fs.Remove(filepath.Join(l.dir, name))
			continue
		}
		if seq, ok := parseCheckpointName(name); ok && seq != latest {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	for i, seq := range seqs {
		if i >= l.keep-1 { // latest plus keep-1 older ones survive
			l.fs.Remove(filepath.Join(l.dir, checkpointName(seq)))
		}
	}
}

// LatestCheckpoint loads the newest checkpoint that validates
// (framing and CRC intact). Invalid or unreadable newer checkpoints are
// skipped in favor of older ones. ok is false when no valid checkpoint
// exists.
func (l *Log) LatestCheckpoint() (seq uint64, state []byte, ok bool, err error) {
	names, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return 0, nil, false, nil // directory may not exist yet
	}
	var seqs []uint64
	for _, name := range names {
		if s, isCk := parseCheckpointName(name); isCk {
			seqs = append(seqs, s)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	for _, s := range seqs {
		data, rerr := l.readCheckpoint(s)
		if rerr != nil {
			continue // corrupt or torn: fall back to the previous one
		}
		return s, data, true, nil
	}
	return 0, nil, false, nil
}

func (l *Log) readCheckpoint(seq uint64) ([]byte, error) {
	rc, err := l.fs.Open(filepath.Join(l.dir, checkpointName(seq)))
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	data, err := io.ReadAll(rc)
	if err != nil {
		return nil, err
	}
	if len(data) < headerSize {
		return nil, fmt.Errorf("wal: checkpoint too short")
	}
	n := binary.LittleEndian.Uint32(data)
	sum := binary.LittleEndian.Uint32(data[4:])
	if int(n) != len(data)-headerSize {
		return nil, fmt.Errorf("wal: checkpoint length mismatch")
	}
	body := data[8:]
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("wal: checkpoint checksum mismatch")
	}
	if got := binary.LittleEndian.Uint64(body); got != seq {
		return nil, fmt.Errorf("wal: checkpoint seq %d under name %d", got, seq)
	}
	return body[8:], nil
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
