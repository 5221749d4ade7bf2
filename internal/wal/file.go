package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
)

// The durable-file layer: every file the journal, its checkpoints and
// the segment store (internal/store) write or read whole goes through
// these four functions, so each fsync, directory fsync, Close-error
// check and CRC compare exists once.

// headerSize is len(uint32) | crc(uint32) | seq(uint64).
const headerSize = 16

// EncodeRecord frames payload as one record: len | crc | seq | payload,
// little-endian, with the CRC32 (IEEE) over seq and payload. The
// journal is a sequence of records; a checkpoint, and each checksummed
// store file, is exactly one. The length field is 32 bits wide.
func EncodeRecord(seq uint64, payload []byte) []byte {
	buf := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint64(buf[8:], seq)
	copy(buf[headerSize:], payload)
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(buf[8:]))
	return buf
}

// DecodeRecord decodes the record at the front of buf: its seq, its
// payload (aliasing buf) and n, the bytes the record spans. It fails on
// a record cut short and on a CRC mismatch.
func DecodeRecord(buf []byte) (seq uint64, payload []byte, n int, err error) {
	if len(buf) < headerSize {
		return 0, nil, 0, fmt.Errorf("record header cut at %d bytes", len(buf))
	}
	size := binary.LittleEndian.Uint32(buf)
	if uint64(size) > uint64(len(buf)-headerSize) {
		return 0, nil, 0, fmt.Errorf("%d-byte record cut at %d bytes", size, len(buf)-headerSize)
	}
	n = headerSize + int(size)
	if crc32.ChecksumIEEE(buf[8:n]) != binary.LittleEndian.Uint32(buf[4:]) {
		return 0, nil, 0, errors.New("record checksum mismatch")
	}
	return binary.LittleEndian.Uint64(buf[8:]), buf[headerSize:n], n, nil
}

// WriteFile creates (or truncates) name, writes data, fsyncs and
// closes it; nil means the bytes are on stable storage. The directory
// entry is not synced: a file written this way is trusted only once a
// file that names it is installed by WriteFileAtomic.
func WriteFile(fsys FS, name string, data []byte) error {
	f, err := fsys.Create(name)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteFileAtomic replaces name with data: WriteFile to a temp file,
// rename, directory fsync. A crash at any point leaves the old file or
// the new one whole, never a part. On failure the temp file is removed.
func WriteFileAtomic(fsys FS, name string, data []byte) error {
	tmp := name + tmpSuffix
	err := WriteFile(fsys, tmp, data)
	if err == nil {
		err = fsys.Rename(tmp, name)
	}
	if err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(filepath.Dir(name))
}

// ReadFile returns the contents of name: open, read all, close. A
// missing file's error wraps fs.ErrNotExist.
func ReadFile(fsys FS, name string) ([]byte, error) {
	rc, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(rc)
	if cerr := rc.Close(); err == nil {
		err = cerr
	}
	return data, err
}

// Fields reads back a payload of uvarint fields, as
// binary.AppendUvarint wrote them. The first truncated or malformed
// field fails the reader: every later read returns zero and Done
// reports that first error. A count larger than the bytes left fails
// too, so a corrupt one never sizes an allocation.
type Fields struct {
	buf []byte
	err error
}

// NewFields reads payload.
func NewFields(payload []byte) *Fields { return &Fields{buf: payload} }

// Fail fails the reader with err unless it has failed already.
func (f *Fields) Fail(err error) {
	if f.err == nil {
		f.err, f.buf = err, nil
	}
}

// Uvarint reads one uvarint.
func (f *Fields) Uvarint() uint64 {
	v, n := binary.Uvarint(f.buf)
	if n <= 0 {
		f.Fail(fmt.Errorf("bad uvarint with %d bytes left", len(f.buf)))
		return 0
	}
	f.buf = f.buf[n:]
	return v
}

// Count reads the number of items that follow, each at least a byte.
func (f *Fields) Count() int {
	n := f.Uvarint()
	if n > uint64(len(f.buf)) {
		f.Fail(fmt.Errorf("count %d with %d bytes left", n, len(f.buf)))
		return 0
	}
	return int(n)
}

// Text reads a string: its length, then its bytes.
func (f *Fields) Text() string {
	n := f.Count()
	s := string(f.buf[:n])
	f.buf = f.buf[n:]
	return s
}

// Err returns the reader's first error.
func (f *Fields) Err() error { return f.err }

// Done is Err, or an error when bytes are left: a payload is read whole.
func (f *Fields) Done() error {
	if f.err == nil && len(f.buf) > 0 {
		return fmt.Errorf("%d trailing bytes", len(f.buf))
	}
	return f.err
}
