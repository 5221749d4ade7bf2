package store

import (
	"fmt"

	"alex/internal/rdf"
	"alex/internal/wal"
)

// Segment is one immutable segment file — an rdf.Index image, written
// once by Compact — mmap'd or read into the heap, with the index over
// its bytes. Every read is the index's; segments are safe for
// concurrent use.
type Segment struct {
	rdf.Index
	data   []byte
	mapped bool // data came from mmap and needs munmap on Close
}

// openSegment validates and maps the segment at path. Reads go through
// fsys first so injected crashes apply; the mapping itself uses the
// real OS (segments live on real files even under faultfs), with an
// MmapFault hook for fault injection and a heap-read fallback when
// mmap is unavailable or noMmap is set.
func openSegment(fsys wal.FS, path string, noMmap bool) (*Segment, error) {
	data, mapped, err := mapOrRead(fsys, path, noMmap)
	if err != nil {
		return nil, err
	}
	idx, err := rdf.OpenIndex(data)
	if err != nil {
		if mapped {
			munmap(data) //lint:ignore syncerr the parse error wins; unmap is best-effort cleanup
		}
		return nil, fmt.Errorf("store: segment %s: %w", path, err)
	}
	return &Segment{Index: *idx, data: data, mapped: mapped}, nil
}

// Close releases the mapping. The Segment must not be used afterwards.
func (seg *Segment) Close() error {
	if !seg.mapped {
		return nil
	}
	seg.mapped = false
	return munmap(seg.data)
}
