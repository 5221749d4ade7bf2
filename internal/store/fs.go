package store

import (
	"fmt"
	"io"

	"alex/internal/wal"
)

// mmapFaulter is an optional wal.FS extension the store probes for with
// a type assertion, so the FS interface itself stays unchanged for
// existing implementers. It vetoes memory-mapping a file; faultfs
// implements it to inject mmap failures and to keep a crashed process
// from reading segments around the FS wrapper.
type mmapFaulter interface {
	MmapFault(path string) error
}

// mapOrRead returns the segment file's bytes, preferring an OS mmap
// (reported by the bool) and falling back to reading the file into
// memory through fsys.
func mapOrRead(fsys wal.FS, path string, noMmap bool) ([]byte, bool, error) {
	if mf, ok := fsys.(mmapFaulter); ok {
		if mf.MmapFault(path) != nil {
			// The mapping is vetoed (injected mmap failure or crash).
			// Fall back to the heap read below — on a crashed FS, Open
			// enforces the crash there.
			noMmap = true
		}
	}
	if !noMmap && mmapAvailable {
		if data, err := mmapOpen(path); err == nil {
			return data, true, nil
		}
		// Fall through: the file may only be visible through fsys, or
		// the platform refused the mapping; a heap read is always valid.
	}
	r, err := fsys.Open(path)
	if err != nil {
		return nil, false, err
	}
	data, rerr := io.ReadAll(r)
	cerr := r.Close()
	if rerr != nil {
		return nil, false, fmt.Errorf("store: read %s: %w", path, rerr)
	}
	if cerr != nil {
		return nil, false, fmt.Errorf("store: close %s: %w", path, cerr)
	}
	return data, false, nil
}
