// Fixture a: the dropped-error shapes the first journal actually
// shipped in internal/wal (bare Close on the scan path, bare Close in
// repair and checkpoint) plus a deferred close of a writable handle.
package a

import (
	"io"

	"alex/internal/wal"
)

type log struct {
	f  wal.File
	fs wal.FS
}

// scanShape is wal.(*Log).scan before the fix: the journal read handle
// closed with its error dropped.
func scanShape(l *log, rc io.ReadCloser) ([]byte, error) {
	data, err := io.ReadAll(rc)
	rc.Close() // want discarded error from rc.Close()
	if err != nil {
		return nil, err
	}
	return data, nil
}

// repairShape is wal.(*Log).repair before the fix: the append handle
// closed bare before truncating back to the record boundary.
func repairShape(l *log, path string, size int64) {
	l.f.Close() // want discarded error from l.f.Close()
	if err := l.fs.Truncate(path, size); err != nil {
		return
	}
}

// checkpointShape is wal.(*Log).Checkpoint before the fix: the journal
// handle closed bare before the reset, plus a dropped Sync.
func checkpointShape(l *log, f wal.File) error {
	f.Sync()    // want discarded error from f.Sync()
	l.f.Close() // want discarded error from l.f.Close()
	nf, err := l.fs.Create("journal")
	if err != nil {
		return err
	}
	l.f = nf
	return nil
}

// deferredWritable defers Close on a handle that can write: the
// flush-on-close error vanishes.
func deferredWritable(fs wal.FS) error {
	f, err := fs.Create("checkpoint.tmp")
	if err != nil {
		return err
	}
	defer f.Close() // want deferred f.Close() on a writable file
	_, err = f.Write([]byte("state"))
	return err
}

// insideDefer hides the bare close inside a deferred func literal; the
// statement is still a drop.
func insideDefer(f wal.File) {
	defer func() {
		f.Close() // want discarded error from f.Close()
	}()
}
