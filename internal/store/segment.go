package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"alex/internal/rdf"
	"alex/internal/wal"
)

// Segment file layout (all integers little-endian):
//
//	page 0:    magic "ALXSEG01" | count uint64 | zero pad to 4096
//	section 0: SPO records, fixed-size pages
//	section 1: POS records, fixed-size pages
//	section 2: OSP records, fixed-size pages
//	footer:    per-section page directories (first key of every page),
//	           then per-position posting tables (id, count) sorted by id
//	trailer:   footerOff uint64 | footerLen uint64 | crc32(footer) |
//	           magic "ALXEND01"
//
// A record is the 12-byte permuted triple for its section (SPO stores
// (s,p,o), POS stores (p,o,s), OSP stores (o,s,p)), so every section is
// simply a sorted array of 3×uint32 keys. Pages hold recsPerPage
// records and are padded to pageSize, so record i of a section lives at
// a fixed computable offset and lookups touch only the footer (page
// directory binary search) plus one data page (in-page binary search).
// The posting tables give O(log distinct) single-position counts and
// the distinct subject/predicate lists without touching data pages.
//
// The trailer CRC covers the footer only: validating a segment at open
// reads metadata, not the data pages — that is what keeps cold start at
// mmap speed. Data-page integrity is the job of the atomic write
// protocol (tmp + fsync + rename + dirsync): a segment file either
// appears complete under its final name or not at all.
const (
	segMagic    = "ALXSEG01"
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

// Position indexes for posting tables.
const (
	posS = 0
	posP = 1
	posO = 2
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

func cmpKeys(a, b [3]uint32, k int) int {
	for i := 0; i < k; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// sortSection sorts ts in section sec's key order.
func sortSection(ts []triple, sec int) {
	sort.Slice(ts, func(i, j int) bool {
		return cmpKeys(permute(ts[i], sec), permute(ts[j], sec), 3) < 0
	})
}

func sectionPages(n int) int { return (n + recsPerPage - 1) / recsPerPage }

func sectionBytes(n int) int { return sectionPages(n) * pageSize }

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
	counts := make([]map[rdf.ID]uint32, 3)
	for sec := 0; sec < 3; sec++ {
		if sec != secSPO {
			sortSection(ts, sec)
		}
		img := make([]byte, sectionBytes(n))
		dirEnt := make([]byte, 0, sectionPages(n)*recSize)
		cnt := make(map[rdf.ID]uint32, 64)
		for i, t := range ts {
			k := permute(t, sec)
			off := (i/recsPerPage)*pageSize + (i%recsPerPage)*recSize
			binary.LittleEndian.PutUint32(img[off:], k[0])
			binary.LittleEndian.PutUint32(img[off+4:], k[1])
			binary.LittleEndian.PutUint32(img[off+8:], k[2])
			if i%recsPerPage == 0 {
				var kb [recSize]byte
				binary.LittleEndian.PutUint32(kb[0:], k[0])
				binary.LittleEndian.PutUint32(kb[4:], k[1])
				binary.LittleEndian.PutUint32(kb[8:], k[2])
				dirEnt = append(dirEnt, kb[:]...)
			}
			// The leading key component of each section is the position
			// whose posting counts that pass accumulates: S from SPO,
			// P from POS, O from OSP.
			cnt[rdf.ID(k[0])]++
		}
		sections[sec] = img
		counts[sec] = cnt
		footer = binary.LittleEndian.AppendUint32(footer, uint32(sectionPages(n)))
		footer = append(footer, dirEnt...)
	}
	for pos := 0; pos < 3; pos++ {
		cnt := counts[pos]
		ids := make([]rdf.ID, 0, len(cnt))
		for id := range cnt {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		footer = binary.LittleEndian.AppendUint32(footer, uint32(len(ids)))
		for _, id := range ids {
			footer = binary.LittleEndian.AppendUint32(footer, uint32(id))
			footer = binary.LittleEndian.AppendUint32(footer, cnt[id])
		}
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
	pages  int
	dirs   [3][]byte // page-directory first keys, recSize bytes per page
	posts  [3][]byte // posting tables, 8 bytes per (id, count) entry
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
	seg := &Segment{path: path, data: data, mapped: mapped, count: n, pages: sectionPages(n)}
	off := 0
	for sec := 0; sec < 3; sec++ {
		seg.secOff[sec] = pageSize + sec*sectionBytes(n)
		if off+4 > len(footer) {
			return nil, fmt.Errorf("store: segment %s: short footer", path)
		}
		pages := int(binary.LittleEndian.Uint32(footer[off:]))
		off += 4
		if pages != seg.pages || off+pages*recSize > len(footer) {
			return nil, fmt.Errorf("store: segment %s: bad page directory", path)
		}
		seg.dirs[sec] = footer[off : off+pages*recSize]
		off += pages * recSize
	}
	for pos := 0; pos < 3; pos++ {
		if off+4 > len(footer) {
			return nil, fmt.Errorf("store: segment %s: short footer", path)
		}
		m := int(binary.LittleEndian.Uint32(footer[off:]))
		off += 4
		if off+m*8 > len(footer) {
			return nil, fmt.Errorf("store: segment %s: bad posting table", path)
		}
		seg.posts[pos] = footer[off : off+m*8]
		off += m * 8
	}
	if off != len(footer) {
		return nil, fmt.Errorf("store: segment %s: trailing footer bytes", path)
	}
	return seg, nil
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

func (seg *Segment) dirKey(sec, page int) [3]uint32 {
	d := seg.dirs[sec][page*recSize:]
	return [3]uint32{
		binary.LittleEndian.Uint32(d),
		binary.LittleEndian.Uint32(d[4:]),
		binary.LittleEndian.Uint32(d[8:]),
	}
}

// bounds returns the half-open record range [lo, hi) of section sec
// whose leading k key components equal key. The page directory narrows
// the search to one page before any data page is touched.
func (seg *Segment) bounds(sec int, key [3]uint32, k int) (int, int) {
	lo := seg.search(sec, func(rk [3]uint32) bool { return cmpKeys(rk, key, k) >= 0 })
	if lo == seg.count || cmpKeys(seg.key(sec, lo), key, k) != 0 {
		return lo, lo
	}
	hi := seg.search(sec, func(rk [3]uint32) bool { return cmpKeys(rk, key, k) > 0 })
	return lo, hi
}

// search returns the first record index where pred(key) is true, using
// the footer page directory for the first level so only one data page
// is faulted in. pred must be monotone over the section's sort order.
func (seg *Segment) search(sec int, pred func([3]uint32) bool) int {
	// First page whose first key satisfies pred; the answer lies in the
	// page before it (or at its very first record).
	pg := sort.Search(seg.pages, func(p int) bool { return pred(seg.dirKey(sec, p)) })
	lo, hi := 0, seg.count
	if pg > 0 {
		lo = (pg - 1) * recsPerPage
	}
	if pg < seg.pages {
		hi = pg*recsPerPage + 1
		if hi > seg.count {
			hi = seg.count
		}
	}
	return lo + sort.Search(hi-lo, func(i int) bool { return pred(seg.key(sec, lo+i)) })
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

// postingCount returns the number of triples whose position pos is id,
// via binary search of the footer posting table.
func (seg *Segment) postingCount(pos int, id rdf.ID) int {
	tbl := seg.posts[pos]
	n := len(tbl) / 8
	i := sort.Search(n, func(i int) bool {
		return rdf.ID(binary.LittleEndian.Uint32(tbl[i*8:])) >= id
	})
	if i < n && rdf.ID(binary.LittleEndian.Uint32(tbl[i*8:])) == id {
		return int(binary.LittleEndian.Uint32(tbl[i*8+4:]))
	}
	return 0
}

// postingIDs returns the distinct IDs at position pos in ascending
// order.
func (seg *Segment) postingIDs(pos int) []rdf.ID {
	tbl := seg.posts[pos]
	n := len(tbl) / 8
	out := make([]rdf.ID, n)
	for i := 0; i < n; i++ {
		out[i] = rdf.ID(binary.LittleEndian.Uint32(tbl[i*8:]))
	}
	return out
}

// has reports whether the exact triple is present.
func (seg *Segment) has(s, p, o rdf.ID) bool {
	lo, hi := seg.bounds(secSPO, [3]uint32{uint32(s), uint32(p), uint32(o)}, 3)
	return hi > lo
}

// forEachMatch enumerates matching triples; same contract as
// rdf.Graph.ForEachMatchIDs. It returns false if fn stopped early.
func (seg *Segment) forEachMatch(s, p, o rdf.ID, haveS, haveP, haveO bool, fn func(s, p, o rdf.ID) bool) bool {
	sec, key, k := planMatch(s, p, o, haveS, haveP, haveO)
	if k == 0 {
		return seg.scan(secSPO, 0, seg.count, fn)
	}
	lo, hi := seg.bounds(sec, key, k)
	return seg.scan(sec, lo, hi, fn)
}

// countMatch counts matching triples; same contract as
// rdf.Graph.CountMatch.
func (seg *Segment) countMatch(s, p, o rdf.ID, haveS, haveP, haveO bool) int {
	switch {
	case haveS && haveP && haveO:
		if seg.has(s, p, o) {
			return 1
		}
		return 0
	case !haveS && !haveP && !haveO:
		return seg.count
	case haveS && !haveP && !haveO:
		return seg.postingCount(posS, s)
	case haveP && !haveS && !haveO:
		return seg.postingCount(posP, p)
	case haveO && !haveS && !haveP:
		return seg.postingCount(posO, o)
	}
	sec, key, k := planMatch(s, p, o, haveS, haveP, haveO)
	lo, hi := seg.bounds(sec, key, k)
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
