package rdf

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"slices"
)

// Index image layout (all integers little-endian):
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
// record it leads, so the ID's records are [first, next entry's first).
// Opening an image derives from each table a bitmap of its IDs (one bit
// per ID up to the largest) and a rank directory over it (the set bits
// before each word that has one); both live on the heap, not in the
// image. A bound lookup tests the leading ID's bit: clear, and the
// range is empty — in a federation most probes of a sameAs-expanded
// entity ask a source that never saw it, and each of those costs that
// one test. Set, and the ID's posting entry is the rank of its bit, so
// the range costs no search; binary searches inside it narrow on the
// remaining components only. The tables also give the distinct subject/predicate
// lists without touching data pages.
//
// The image is the same bytes on the heap (an in-memory Graph) and in
// a segment file (internal/store mmaps it). The trailer CRC covers the
// footer only: opening an image reads metadata, not the data pages —
// that is what keeps a mapped file's cold start at mmap speed. A file's
// data pages are the job of its writer's atomic commit.
const (
	idxMagic    = "ALXSEG02"
	idxEndMagic = "ALXEND01"
	pageSize    = 4096
	recSize     = 12
	recsPerPage = pageSize / recSize // 341 records; 4 pad bytes per page
	idxTrailer  = 8 + 8 + 4 + 8      // footerOff | footerLen | crc | end magic
)

// Section indexes. Each section's records are the triples' components
// rotated into its key order.
const (
	secSPO = 0
	secPOS = 1
	secOSP = 2
)

// IDTriple is a triple of dictionary IDs.
type IDTriple struct{ S, P, O ID }

// unpermute reconstructs the (s,p,o) triple from a section record key.
func unpermute(k [3]uint32, sec int) IDTriple {
	switch sec {
	case secSPO:
		return IDTriple{ID(k[0]), ID(k[1]), ID(k[2])}
	case secPOS:
		return IDTriple{ID(k[2]), ID(k[0]), ID(k[1])}
	default:
		return IDTriple{ID(k[1]), ID(k[2]), ID(k[0])}
	}
}

// compareKeys orders record keys component by component.
func compareKeys(a, b [3]uint32) int {
	if c := cmp.Compare(a[0], b[0]); c != 0 {
		return c
	}
	if c := cmp.Compare(a[1], b[1]); c != 0 {
		return c
	}
	return cmp.Compare(a[2], b[2])
}

func sectionBytes(n int) int { return (n + recsPerPage - 1) / recsPerPage * pageSize }

// EncodeIndex returns the index image of the distinct triples of ts.
func EncodeIndex(ts []IDTriple) []byte {
	keys := make([][3]uint32, len(ts))
	for i, t := range ts {
		keys[i] = [3]uint32{uint32(t.S), uint32(t.P), uint32(t.O)}
	}
	slices.SortFunc(keys, compareKeys)
	keys = slices.Compact(keys)
	n := len(keys)

	footerOff := pageSize + 3*sectionBytes(n)
	pages := make([]byte, footerOff)
	copy(pages, idxMagic)
	binary.LittleEndian.PutUint64(pages[8:], uint64(n))
	var footer []byte
	for sec := 0; sec < 3; sec++ {
		if sec != secSPO { // rotate (s,p,o) to (p,o,s), then to (o,s,p)
			for i, k := range keys {
				keys[i] = [3]uint32{k[1], k[2], k[0]}
			}
			slices.SortFunc(keys, compareKeys)
		}
		base := pageSize + sec*sectionBytes(n)
		var posts []byte
		for i, k := range keys {
			off := base + (i/recsPerPage)*pageSize + (i%recsPerPage)*recSize
			binary.LittleEndian.PutUint32(pages[off:], k[0])
			binary.LittleEndian.PutUint32(pages[off+4:], k[1])
			binary.LittleEndian.PutUint32(pages[off+8:], k[2])
			if i == 0 || k[0] != keys[i-1][0] { // a new leading ID: its posting entry
				posts = binary.LittleEndian.AppendUint32(posts, k[0])
				posts = binary.LittleEndian.AppendUint32(posts, uint32(i))
			}
		}
		footer = binary.LittleEndian.AppendUint32(footer, uint32(len(posts)/8))
		footer = append(footer, posts...)
	}
	// One exact-size buffer: an in-memory graph keeps it for its life.
	img := make([]byte, 0, footerOff+len(footer)+idxTrailer)
	img = append(append(img, pages...), footer...)
	img = binary.LittleEndian.AppendUint64(img, uint64(footerOff))
	img = binary.LittleEndian.AppendUint64(img, uint64(len(footer)))
	img = binary.LittleEndian.AppendUint32(img, crc32.ChecksumIEEE(footer))
	return append(img, idxEndMagic...)
}

// Index is the sorted triple index: an image EncodeIndex wrote, opened
// in place. Every lookup reads its posting tables and records where
// they lie, so the bytes may be on the heap or mmap'd. An Index is
// immutable and safe for concurrent use; the zero Index is empty.
type Index struct {
	data   []byte
	count  int
	secOff [3]int
	posts  [3][]byte   // per-section posting tables, 8 bytes per (id, first record) entry
	lead   [3][]uint64 // per-section bitmaps of the posting tables' IDs
	rank   [3][]uint32 // per-section rank directories: set bits of lead before each word
}

// OpenIndex validates the image in data and returns the index over it;
// data must not change while the index is in use.
func OpenIndex(data []byte) (*Index, error) {
	if len(data) < pageSize+idxTrailer {
		return nil, fmt.Errorf("truncated (%d bytes)", len(data))
	}
	if string(data[:8]) != idxMagic {
		return nil, errors.New("bad magic")
	}
	if string(data[len(data)-8:]) != idxEndMagic {
		return nil, errors.New("missing end magic (torn write?)")
	}
	count := binary.LittleEndian.Uint64(data[8:16])
	tr := data[len(data)-idxTrailer:]
	footerOff := binary.LittleEndian.Uint64(tr[0:8])
	footerLen := binary.LittleEndian.Uint64(tr[8:16])
	crc := binary.LittleEndian.Uint32(tr[16:20])
	n := int(count)
	wantOff := uint64(pageSize + 3*sectionBytes(n))
	if footerOff != wantOff || footerOff+footerLen+idxTrailer != uint64(len(data)) {
		return nil, errors.New("inconsistent geometry")
	}
	footer := data[footerOff : footerOff+footerLen]
	if crc32.ChecksumIEEE(footer) != crc {
		return nil, errors.New("footer checksum mismatch")
	}
	x := &Index{data: data, count: n}
	off := 0
	for sec := 0; sec < 3; sec++ {
		x.secOff[sec] = pageSize + sec*sectionBytes(n)
		if off+4 > len(footer) {
			return nil, errors.New("short footer")
		}
		m := int(binary.LittleEndian.Uint32(footer[off:]))
		off += 4
		if off+m*8 > len(footer) {
			return nil, errors.New("bad posting table")
		}
		x.posts[sec] = footer[off : off+m*8]
		off += m * 8
		if err := checkPostings(x.posts[sec], n); err != nil {
			return nil, fmt.Errorf("section %d: %v", sec, err)
		}
		x.lead[sec], x.rank[sec] = leadBitmap(x.posts[sec])
	}
	if off != len(footer) {
		return nil, errors.New("trailing footer bytes")
	}
	return x, nil
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

// leadBitmap returns the bitmap of a checked posting table's IDs (bit
// id is set when id leads a record range) and its rank directory: for
// each word with a bit set, the set bits before it, which is the
// posting entry of its first ID. The IDs ascend, so the last one sizes
// both.
func leadBitmap(tbl []byte) (lead []uint64, rank []uint32) {
	m := len(tbl) / 8
	if m == 0 {
		return nil, nil
	}
	w := binary.LittleEndian.Uint32(tbl[(m-1)*8:])/64 + 1
	lead, rank = make([]uint64, w), make([]uint32, w)
	for i := 0; i < m; i++ {
		id := binary.LittleEndian.Uint32(tbl[i*8:])
		if lead[id/64] == 0 {
			rank[id/64] = uint32(i)
		}
		lead[id/64] |= 1 << (id % 64)
	}
	return lead, rank
}

// leads reports whether id is a leading ID of section sec.
func (x *Index) leads(sec int, id uint32) bool {
	words := x.lead[sec]
	return int(id/64) < len(words) && words[id/64]&(1<<(id%64)) != 0
}

// Size returns the number of distinct triples.
func (x *Index) Size() int { return x.count }

func (x *Index) key(sec, i int) [3]uint32 {
	off := x.secOff[sec] + (i/recsPerPage)*pageSize + (i%recsPerPage)*recSize
	return [3]uint32{
		binary.LittleEndian.Uint32(x.data[off:]),
		binary.LittleEndian.Uint32(x.data[off+4:]),
		binary.LittleEndian.Uint32(x.data[off+8:]),
	}
}

// bounds returns the half-open record range [lo, hi) of section sec
// whose leading k key components equal key; k == 0 is the whole
// section. A leading ID the section lacks is an empty range after one
// bit test; otherwise the rank of its bit is its posting entry, which
// gives its range, and each further component narrows it.
func (x *Index) bounds(sec int, key [3]uint32, k int) (lo, hi int) {
	if k == 0 {
		return 0, x.count
	}
	if !x.leads(sec, key[0]) {
		return 0, 0
	}
	w, b := key[0]/64, key[0]%64
	i := int(x.rank[sec][w]) + bits.OnesCount64(x.lead[sec][w]&(1<<b-1))
	tbl := x.posts[sec]
	lo, hi = int(binary.LittleEndian.Uint32(tbl[i*8+4:])), x.count
	if i+1 < len(tbl)/8 {
		hi = int(binary.LittleEndian.Uint32(tbl[i*8+12:]))
	}
	for c := 1; c < k && lo < hi; c++ {
		lo, hi = x.narrow(sec, c, key[c], lo, hi)
	}
	return lo, hi
}

// narrow returns the part of [lo, hi) whose key component c equals v.
// The records in [lo, hi) agree on every component before c, so they
// are sorted by component c. A binary search finds the first record
// equal to v; the run of equal records is usually short, so the end of
// it is found by galloping from there and searching the last stride.
func (x *Index) narrow(sec, c int, v uint32, lo, hi int) (int, int) {
	base := x.secOff[sec] + 4*c
	i, j := lo, hi
	for i < j {
		h := int(uint(i+j) >> 1)
		if x.component(base, h) < v {
			i = h + 1
		} else {
			j = h
		}
	}
	lo = i
	if lo == hi || x.component(base, lo) != v {
		return lo, lo
	}
	prev, next := lo, lo+1 // record prev equals v; the run ends in (prev, next]
	for next < hi && x.component(base, next) <= v {
		prev, next = next, lo+2*(next-lo)
	}
	i, j = prev+1, min(next, hi)
	for i < j {
		h := int(uint(i+j) >> 1)
		if x.component(base, h) <= v {
			i = h + 1
		} else {
			j = h
		}
	}
	return lo, i
}

// component reads one key component of record i; base is the section's
// offset plus the component's offset within a record.
func (x *Index) component(base, i int) uint32 {
	return binary.LittleEndian.Uint32(x.data[base+(i/recsPerPage)*pageSize+(i%recsPerPage)*recSize:])
}

// scan calls fn with the reconstructed (s,p,o) of records [lo, hi) of
// section sec until fn returns false.
func (x *Index) scan(sec, lo, hi int, fn func(s, p, o ID) bool) {
	for i := lo; i < hi; i++ {
		t := unpermute(x.key(sec, i), sec)
		if !fn(t.S, t.P, t.O) {
			return
		}
	}
}

// postingIDs returns the distinct leading IDs of section sec — its
// subjects for SPO, predicates for POS — in ascending order.
func (x *Index) postingIDs(sec int) []ID {
	tbl := x.posts[sec]
	n := len(tbl) / 8
	out := make([]ID, n)
	for i := 0; i < n; i++ {
		out[i] = ID(binary.LittleEndian.Uint32(tbl[i*8:]))
	}
	return out
}

// ForEachMatchIDs calls fn for every triple whose bound positions (the
// have* flags) equal s, p, o until fn returns false. The triples come
// in the key order of the section the bound positions pick: SPO for an
// unbound or S-led pattern.
func (x *Index) ForEachMatchIDs(s, p, o ID, haveS, haveP, haveO bool, fn func(s, p, o ID) bool) {
	sec, key, k := planMatch(s, p, o, haveS, haveP, haveO)
	lo, hi := x.bounds(sec, key, k)
	x.scan(sec, lo, hi, fn)
}

// CountMatch returns the number of triples ForEachMatchIDs would
// yield: the size of their record range, found without reading the
// records.
func (x *Index) CountMatch(s, p, o ID, haveS, haveP, haveO bool) int {
	lo, hi := x.bounds(planMatch(s, p, o, haveS, haveP, haveO))
	return hi - lo
}

// SubjectIDs returns all distinct subject IDs in ascending order.
func (x *Index) SubjectIDs() []ID { return x.postingIDs(secSPO) }

// PredicateIDs returns all distinct predicate IDs in ascending order.
func (x *Index) PredicateIDs() []ID { return x.postingIDs(secPOS) }

// Entity returns subject s's (predicate, object) pairs ordered by
// predicate then object ID: its records in the SPO section.
func (x *Index) Entity(s ID) []Attribute {
	lo, hi := x.bounds(secSPO, [3]uint32{uint32(s)}, 1)
	if lo == hi {
		return nil
	}
	out := make([]Attribute, 0, hi-lo)
	for i := lo; i < hi; i++ {
		k := x.key(secSPO, i)
		out = append(out, Attribute{Pred: ID(k[1]), Obj: ID(k[2])})
	}
	return out
}

// planMatch picks the section and key prefix for a bound-position
// combination.
func planMatch(s, p, o ID, haveS, haveP, haveO bool) (sec int, key [3]uint32, k int) {
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
