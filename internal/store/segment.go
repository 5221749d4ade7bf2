package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"alex/internal/rdf"
	"alex/internal/wal"
)

// Segment file layout (all integers little-endian):
//
//	page 0:    magic "ALXSEG02" | count uint64 | zero pad to 4096
//	section 0: SPO records, fixed-size pages
//	section 1: POS records, fixed-size pages
//	section 2: OSP records, fixed-size pages
//	footer:    per-section posting tables: entries uint32, then
//	           (id, first record) uint32 pairs sorted by id
//	trailer:   footerOff uint64 | footerLen uint64 | crc32(footer) |
//	           magic "ALXEND01"
//
// A record is the 12-byte permuted triple for its section (SPO stores
// (s,p,o), POS stores (p,o,s), OSP stores (o,s,p)), so every section is
// simply a sorted array of 3×uint32 keys. Pages hold recsPerPage
// records and are padded to pageSize, so record i of a section lives at
// a fixed computable offset. A section's posting table lists each
// distinct leading ID (S in SPO, P in POS, O in OSP) with the first
// record it leads, so the ID's records are [first, next entry's first):
// a bound lookup is one binary search of the footer for that range,
// then binary searches inside it on the remaining components only. The
// tables also give the distinct subject/predicate lists without
// touching data pages.
//
// The trailer CRC covers the footer only: validating a segment at open
// reads metadata, not the data pages — that is what keeps cold start at
// mmap speed. Data-page integrity is the job of the atomic write
// protocol (tmp + fsync + rename + dirsync): a segment file either
// appears complete under its final name or not at all.
const (
	segMagic    = "ALXSEG02"
	segEndMagic = "ALXEND01"
	pageSize    = 4096
	recSize     = 12
	recsPerPage = pageSize / recSize // 341 records; 4 pad bytes per page
	segTrailer  = 8 + 8 + 4 + 8      // footerOff | footerLen | crc | end magic
)

// Section indexes. The permutation for each section places the sort key
// components in record order.
const (
	secSPO = 0
	secPOS = 1
	secOSP = 2
)

type triple struct{ s, p, o rdf.ID }

// permute returns t's record key in section sec's component order.
func permute(t triple, sec int) [3]uint32 {
	switch sec {
	case secSPO:
		return [3]uint32{uint32(t.s), uint32(t.p), uint32(t.o)}
	case secPOS:
		return [3]uint32{uint32(t.p), uint32(t.o), uint32(t.s)}
	default:
		return [3]uint32{uint32(t.o), uint32(t.s), uint32(t.p)}
	}
}

// unpermute reconstructs the (s,p,o) triple from a section record key.
func unpermute(k [3]uint32, sec int) triple {
	switch sec {
	case secSPO:
		return triple{rdf.ID(k[0]), rdf.ID(k[1]), rdf.ID(k[2])}
	case secPOS:
		return triple{rdf.ID(k[2]), rdf.ID(k[0]), rdf.ID(k[1])}
	default:
		return triple{rdf.ID(k[1]), rdf.ID(k[2]), rdf.ID(k[0])}
	}
}

// sortSection sorts ts in section sec's key order.
func sortSection(ts []triple, sec int) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := permute(ts[i], sec), permute(ts[j], sec)
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})
}

func sectionBytes(n int) int { return (n + recsPerPage - 1) / recsPerPage * pageSize }

// writeSegment writes the triples as a segment file at dir/name using
// the atomic tmp + fsync + rename + dirsync protocol. ts is sorted (and
// deduplicated) in place. All I/O goes through fsys so faultfs can
// inject fsync failures, torn writes, rename faults and crash points.
func writeSegment(fsys wal.FS, dir, name string, ts []triple) (err error) {
	sortSection(ts, secSPO)
	ts = dedupeSorted(ts)
	n := len(ts)

	// Build the three section images and the footer in memory. Sections
	// are written largest-first as single writes, so a build stays at
	// O(dataset) transient memory — the same order as the sorted input
	// slice itself. (A streaming k-way merge writer is the upgrade path
	// if segment builds ever need to run in constant memory.)
	var footer []byte
	sections := make([][]byte, 3)
	for sec := 0; sec < 3; sec++ {
		if sec != secSPO {
			sortSection(ts, sec)
		}
		img := make([]byte, sectionBytes(n))
		var posts []byte
		for i, t := range ts {
			k := permute(t, sec)
			off := (i/recsPerPage)*pageSize + (i%recsPerPage)*recSize
			binary.LittleEndian.PutUint32(img[off:], k[0])
			binary.LittleEndian.PutUint32(img[off+4:], k[1])
			binary.LittleEndian.PutUint32(img[off+8:], k[2])
			if i == 0 || k[0] != permute(ts[i-1], sec)[0] { // a new leading ID: its posting entry
				posts = binary.LittleEndian.AppendUint32(posts, k[0])
				posts = binary.LittleEndian.AppendUint32(posts, uint32(i))
			}
		}
		sections[sec] = img
		footer = binary.LittleEndian.AppendUint32(footer, uint32(len(posts)/8))
		footer = append(footer, posts...)
	}

	header := make([]byte, pageSize)
	copy(header, segMagic)
	binary.LittleEndian.PutUint64(header[8:], uint64(n))

	footerOff := pageSize + 3*sectionBytes(n)
	trailer := binary.LittleEndian.AppendUint64(nil, uint64(footerOff))
	trailer = binary.LittleEndian.AppendUint64(trailer, uint64(len(footer)))
	trailer = binary.LittleEndian.AppendUint32(trailer, crc32.ChecksumIEEE(footer))
	trailer = append(trailer, segEndMagic...)

	tmp := dir + "/" + name + ".tmp"
	final := dir + "/" + name
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: create %s: %w", tmp, err)
	}
	for _, chunk := range [][]byte{header, sections[0], sections[1], sections[2], append(footer, trailer...)} {
		if len(chunk) == 0 {
			continue
		}
		if _, werr := f.Write(chunk); werr != nil {
			f.Close() //lint:ignore syncerr the write error wins; close is best-effort cleanup
			return fmt.Errorf("store: write %s: %w", tmp, werr)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close() //lint:ignore syncerr the sync error wins; close is best-effort cleanup
		return fmt.Errorf("store: fsync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", tmp, err)
	}
	if err := fsys.Rename(tmp, final); err != nil {
		return fmt.Errorf("store: rename %s: %w", tmp, err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("store: sync dir %s: %w", dir, err)
	}
	return nil
}

// dedupeSorted removes adjacent duplicates from an SPO-sorted slice.
func dedupeSorted(ts []triple) []triple {
	out := ts[:0]
	for i, t := range ts {
		if i == 0 || t != ts[i-1] {
			out = append(out, t)
		}
	}
	return out
}

// Segment is one immutable, mmap'd (or heap-loaded) segment file.
// Segments are read-only and safe for concurrent use.
type Segment struct {
	path   string
	data   []byte
	mapped bool // data came from mmap and needs munmap on Close
	count  int
	secOff [3]int
	posts  [3][]byte // per-section posting tables, 8 bytes per (id, first record) entry
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
	seg, err := parseSegment(path, data, mapped)
	if err != nil {
		if mapped {
			munmap(data) //lint:ignore syncerr the parse error wins; unmap is best-effort cleanup
		}
		return nil, err
	}
	return seg, nil
}

func parseSegment(path string, data []byte, mapped bool) (*Segment, error) {
	if len(data) < pageSize+segTrailer {
		return nil, fmt.Errorf("store: segment %s: truncated (%d bytes)", path, len(data))
	}
	if string(data[:8]) != segMagic {
		return nil, fmt.Errorf("store: segment %s: bad magic", path)
	}
	if string(data[len(data)-8:]) != segEndMagic {
		return nil, fmt.Errorf("store: segment %s: missing end magic (torn write?)", path)
	}
	count := binary.LittleEndian.Uint64(data[8:16])
	tr := data[len(data)-segTrailer:]
	footerOff := binary.LittleEndian.Uint64(tr[0:8])
	footerLen := binary.LittleEndian.Uint64(tr[8:16])
	crc := binary.LittleEndian.Uint32(tr[16:20])
	n := int(count)
	wantOff := uint64(pageSize + 3*sectionBytes(n))
	if footerOff != wantOff || footerOff+footerLen+segTrailer != uint64(len(data)) {
		return nil, fmt.Errorf("store: segment %s: inconsistent geometry", path)
	}
	footer := data[footerOff : footerOff+footerLen]
	if crc32.ChecksumIEEE(footer) != crc {
		return nil, fmt.Errorf("store: segment %s: footer checksum mismatch", path)
	}
	seg := &Segment{path: path, data: data, mapped: mapped, count: n}
	off := 0
	for sec := 0; sec < 3; sec++ {
		seg.secOff[sec] = pageSize + sec*sectionBytes(n)
		if off+4 > len(footer) {
			return nil, fmt.Errorf("store: segment %s: short footer", path)
		}
		m := int(binary.LittleEndian.Uint32(footer[off:]))
		off += 4
		if off+m*8 > len(footer) {
			return nil, fmt.Errorf("store: segment %s: bad posting table", path)
		}
		seg.posts[sec] = footer[off : off+m*8]
		off += m * 8
		if err := checkPostings(seg.posts[sec], n); err != nil {
			return nil, fmt.Errorf("store: segment %s: section %d: %v", path, sec, err)
		}
	}
	if off != len(footer) {
		return nil, fmt.Errorf("store: segment %s: trailing footer bytes", path)
	}
	return seg, nil
}

// checkPostings verifies that a posting table's record ranges tile the
// section's n records: IDs strictly ascend, the first entry starts at
// record 0, and first records strictly ascend below n, so no range is
// empty or reaches past the section. bounds indexes data pages with
// these offsets unchecked.
func checkPostings(tbl []byte, n int) error {
	m := len(tbl) / 8
	if m == 0 && n > 0 {
		return errors.New("empty posting table")
	}
	for i := 0; i < m; i++ {
		id, first := binary.LittleEndian.Uint32(tbl[i*8:]), binary.LittleEndian.Uint32(tbl[i*8+4:])
		if i > 0 && id <= binary.LittleEndian.Uint32(tbl[i*8-8:]) {
			return fmt.Errorf("posting ID %d out of order at entry %d", id, i)
		}
		if i == 0 && first != 0 || i > 0 && first <= binary.LittleEndian.Uint32(tbl[i*8-4:]) || int(first) >= n {
			return fmt.Errorf("first record %d of entry %d out of order or past %d records", first, i, n)
		}
	}
	return nil
}

// Close releases the mapping. The Segment must not be used afterwards.
func (seg *Segment) Close() error {
	if !seg.mapped {
		return nil
	}
	seg.mapped = false
	return munmap(seg.data)
}

// Count returns the number of triples in the segment.
func (seg *Segment) Count() int { return seg.count }

func (seg *Segment) key(sec, i int) [3]uint32 {
	off := seg.secOff[sec] + (i/recsPerPage)*pageSize + (i%recsPerPage)*recSize
	return [3]uint32{
		binary.LittleEndian.Uint32(seg.data[off:]),
		binary.LittleEndian.Uint32(seg.data[off+4:]),
		binary.LittleEndian.Uint32(seg.data[off+8:]),
	}
}

// bounds returns the half-open record range [lo, hi) of section sec
// whose leading k key components equal key; k == 0 is the whole
// section. The posting table gives the leading ID's range, and each
// further component narrows it.
func (seg *Segment) bounds(sec int, key [3]uint32, k int) (lo, hi int) {
	if k == 0 {
		return 0, seg.count
	}
	tbl := seg.posts[sec]
	m := len(tbl) / 8
	i, j := 0, m
	for i < j {
		h := int(uint(i+j) >> 1)
		if binary.LittleEndian.Uint32(tbl[h*8:]) < key[0] {
			i = h + 1
		} else {
			j = h
		}
	}
	if i == m || binary.LittleEndian.Uint32(tbl[i*8:]) != key[0] {
		return 0, 0
	}
	lo, hi = int(binary.LittleEndian.Uint32(tbl[i*8+4:])), seg.count
	if i+1 < m {
		hi = int(binary.LittleEndian.Uint32(tbl[i*8+12:]))
	}
	for c := 1; c < k && lo < hi; c++ {
		lo, hi = seg.narrow(sec, c, key[c], lo, hi)
	}
	return lo, hi
}

// narrow returns the part of [lo, hi) whose key component c equals v.
// The records in [lo, hi) agree on every component before c, so they
// are sorted by component c.
func (seg *Segment) narrow(sec, c int, v uint32, lo, hi int) (int, int) {
	base := seg.secOff[sec] + 4*c
	i, j := lo, hi
	for i < j {
		h := int(uint(i+j) >> 1)
		if seg.component(base, h) < v {
			i = h + 1
		} else {
			j = h
		}
	}
	lo, j = i, hi
	for i < j {
		h := int(uint(i+j) >> 1)
		if seg.component(base, h) <= v {
			i = h + 1
		} else {
			j = h
		}
	}
	return lo, i
}

// component reads one key component of record i; base is the section's
// offset plus the component's offset within a record.
func (seg *Segment) component(base, i int) uint32 {
	return binary.LittleEndian.Uint32(seg.data[base+(i/recsPerPage)*pageSize+(i%recsPerPage)*recSize:])
}

// scan calls fn with the reconstructed (s,p,o) of records [lo, hi) of
// section sec; it returns false if fn stopped the iteration.
func (seg *Segment) scan(sec, lo, hi int, fn func(s, p, o rdf.ID) bool) bool {
	for i := lo; i < hi; i++ {
		t := unpermute(seg.key(sec, i), sec)
		if !fn(t.s, t.p, t.o) {
			return false
		}
	}
	return true
}

// postingIDs returns the distinct leading IDs of section sec — its
// subjects for SPO, predicates for POS — in ascending order.
func (seg *Segment) postingIDs(sec int) []rdf.ID {
	tbl := seg.posts[sec]
	n := len(tbl) / 8
	out := make([]rdf.ID, n)
	for i := 0; i < n; i++ {
		out[i] = rdf.ID(binary.LittleEndian.Uint32(tbl[i*8:]))
	}
	return out
}

// forEachMatch enumerates matching triples; same contract as
// rdf.Graph.ForEachMatchIDs. It returns false if fn stopped early.
func (seg *Segment) forEachMatch(s, p, o rdf.ID, haveS, haveP, haveO bool, fn func(s, p, o rdf.ID) bool) bool {
	sec, key, k := planMatch(s, p, o, haveS, haveP, haveO)
	lo, hi := seg.bounds(sec, key, k)
	return seg.scan(sec, lo, hi, fn)
}

// countMatch counts matching triples; same contract as
// rdf.Graph.CountMatch.
func (seg *Segment) countMatch(s, p, o rdf.ID, haveS, haveP, haveO bool) int {
	lo, hi := seg.bounds(planMatch(s, p, o, haveS, haveP, haveO))
	return hi - lo
}

// planMatch picks the section and key prefix for a bound-position
// combination, mirroring rdf.Graph's index choice.
func planMatch(s, p, o rdf.ID, haveS, haveP, haveO bool) (sec int, key [3]uint32, k int) {
	switch {
	case haveS && haveP && haveO:
		return secSPO, [3]uint32{uint32(s), uint32(p), uint32(o)}, 3
	case haveS && haveP:
		return secSPO, [3]uint32{uint32(s), uint32(p)}, 2
	case haveP && haveO:
		return secPOS, [3]uint32{uint32(p), uint32(o)}, 2
	case haveS && haveO:
		return secOSP, [3]uint32{uint32(o), uint32(s)}, 2
	case haveS:
		return secSPO, [3]uint32{uint32(s)}, 1
	case haveP:
		return secPOS, [3]uint32{uint32(p)}, 1
	case haveO:
		return secOSP, [3]uint32{uint32(o)}, 1
	default:
		return secSPO, [3]uint32{}, 0
	}
}
