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
