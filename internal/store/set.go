package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"strings"
	"sync/atomic"

	"alex/internal/links"
	"alex/internal/rdf"
	"alex/internal/wal"
)

// On-disk layout of a store directory:
//
//	MANIFEST.json            the root of the generation (written last,
//	                         atomically: tmp + fsync + rename + dirsync)
//	dict.bin                 append-only dictionary terms in ID order;
//	                         the manifest pins how many bytes/terms are
//	                         valid, so a torn append is truncated away
//	<src>-<seq>.seg          immutable sorted segments (see segment.go)
//	<src>-delta-<gen>.bin    the in-memory delta serialized at checkpoint
//	<src>.ent                the source's linkable-entity ID list
//	links.bin                the initial candidate link set
//
// Every file except dict.bin and MANIFEST.json is immutable and
// uniquely named, and the manifest is renamed into place only after
// everything it references is durable. A crash at any point therefore
// leaves the previous manifest and every file it references intact:
// recovery falls back to the previous generation, and stray files from
// the torn generation are removed at the next Open.
const (
	manifestName = "MANIFEST.json"
	dictName     = "dict.bin"
	linksName    = "links.bin"

	manifestVersion = 1

	// defaultMaxSegments is the flush-stack depth at which a compaction
	// folds the whole stack into one segment instead of appending
	// another delta segment.
	defaultMaxSegments = 8
)

// ErrNoStore is wrapped by Open when dir holds no store manifest —
// callers fall back to building from the original data.
var ErrNoStore = errors.New("store: no manifest")

// Options configures a Set.
type Options struct {
	// FS is the file system; nil means the real OS. faultfs satisfies
	// it for crash-injection tests.
	FS wal.FS
	// NoMmap forces segments to be read into memory instead of mmap'd.
	NoMmap bool
	// MaxSegments overrides defaultMaxSegments; 0 keeps the default.
	MaxSegments int
	// Meta is an identity stamp for the data the store was built from
	// (dataset paths or synth profile). Open fails when it does not
	// match, because dictionary IDs are only meaningful for the exact
	// inputs the store was built with.
	Meta string
}

// Set is a directory of disk-backed triple stores sharing one
// dictionary: the unit alexd persists. Mutation (AddSource, InsertIDs
// on its stores, Compact, Checkpoint) is single-writer, like the rest
// of the write path; reads through the stores are safe concurrently
// with all of it.
type Set struct {
	dir  string
	fs   wal.FS
	opts Options

	dict     *rdf.Dict
	gen      atomic.Uint64 // manifest generation, bumped each durable write
	seq      uint64        // unique file sequence number
	sources  []*Segmented
	byName   map[string]*Segmented
	entities map[string][]rdf.ID
	links    []links.Link

	dictTerms  int   // terms persisted in dict.bin per the manifest
	dictBytes  int64 // valid bytes of dict.bin per the manifest
	deltaFiles map[string]string
	hasLinks   bool

	// retired holds segments replaced by compaction. They stay mapped
	// until Close so readers holding an older view never fault.
	retired []*Segment

	lastFP string // fingerprint at the last manifest write
}

// Create starts an empty store set in dir. The caller adds sources,
// loads triples, then calls Checkpoint (or Compact) to make it
// durable.
func Create(dir string, dict *rdf.Dict, opts Options) (*Set, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = wal.OS{}
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("store: mkdir %s: %w", dir, err)
	}
	if dict == nil {
		dict = rdf.NewDict()
	}
	return &Set{
		dir:        dir,
		fs:         fsys,
		opts:       opts,
		dict:       dict,
		byName:     make(map[string]*Segmented),
		entities:   make(map[string][]rdf.ID),
		deltaFiles: make(map[string]string),
	}, nil
}

// AddSource registers a new named store. Names become file name stems,
// so they are restricted to [a-zA-Z0-9_-].
func (s *Set) AddSource(name string) (*Segmented, error) {
	if name == "" || strings.IndexFunc(name, func(r rune) bool {
		return !(r == '-' || r == '_' || (r >= '0' && r <= '9') ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z'))
	}) >= 0 {
		return nil, fmt.Errorf("store: invalid source name %q", name)
	}
	if _, dup := s.byName[name]; dup {
		return nil, fmt.Errorf("store: duplicate source %q", name)
	}
	src := newSegmented(name, s.dict)
	s.sources = append(s.sources, src)
	s.byName[name] = src
	return src, nil
}

// Source returns the named store, or nil.
func (s *Set) Source(name string) *Segmented { return s.byName[name] }

// Sources returns the stores in registration order.
func (s *Set) Sources() []*Segmented { return s.sources }

// Dict returns the shared dictionary.
func (s *Set) Dict() *rdf.Dict { return s.dict }

// Meta returns the identity stamp the store was created or opened with.
func (s *Set) Meta() string { return s.opts.Meta }

// Generation returns the manifest generation (bumped by every
// successful Compact/Checkpoint that wrote something).
func (s *Set) Generation() uint64 { return s.gen.Load() }

// Dir returns the store directory.
func (s *Set) Dir() string { return s.dir }

// SetEntities records the source's linkable-entity ID list, persisted
// so cold start does not have to recompute it from the raw data.
func (s *Set) SetEntities(name string, ids []rdf.ID) {
	s.entities[name] = append([]rdf.ID(nil), ids...)
}

// Entities returns the recorded entity list for name.
func (s *Set) Entities(name string) []rdf.ID { return s.entities[name] }

// SetInitialLinks records the initial candidate link set, persisted so
// cold start does not have to re-run the automatic linker.
func (s *Set) SetInitialLinks(ls []links.Link) {
	s.links = append([]links.Link(nil), ls...)
	s.hasLinks = true
}

// InitialLinks returns the recorded initial link set and whether one
// was recorded.
func (s *Set) InitialLinks() ([]links.Link, bool) { return s.links, s.hasLinks }

// Dirty reports whether there is anything a Checkpoint would persist.
func (s *Set) Dirty() bool { return s.fingerprint() != s.lastFP }

// fingerprint captures everything a manifest write depends on. The
// store is insert-only, so sizes and file names are a sound change
// detector.
func (s *Set) fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "d%d", s.dict.Len())
	for _, src := range s.sources {
		v := src.view.Load()
		fmt.Fprintf(&b, "|%s=%d", src.name, v.delta.Size())
		for _, seg := range v.segs {
			b.WriteByte(',')
			b.WriteString(seg.path)
		}
	}
	return b.String()
}

func (s *Set) maxSegments() int {
	if s.opts.MaxSegments > 0 {
		return s.opts.MaxSegments
	}
	return defaultMaxSegments
}

func (s *Set) nextSeq() uint64 { s.seq++; return s.seq }

// Compact folds each dirty source's delta into a new immutable segment
// (a full merge of the whole stack once it is maxSegments deep) and
// commits the new generation. Intended for episode boundaries. Clean
// sources are untouched; a fully clean set is a no-op.
func (s *Set) Compact() error {
	type swap struct {
		src  *Segmented
		prev *segView
		next *segView
		old  []*Segment
	}
	var swaps []swap
	for _, src := range s.sources {
		v := src.view.Load()
		if v.delta.Size() == 0 {
			continue
		}
		var ts []triple
		var old []*Segment
		if len(v.segs) >= s.maxSegments() {
			ts = v.triples() // full merge
			old = v.segs
		} else {
			ts = (&segView{delta: v.delta}).triples() // delta only
		}
		name := fmt.Sprintf("%s-%06d.seg", src.name, s.nextSeq())
		if err := writeSegment(s.fs, s.dir, name, ts); err != nil {
			return err
		}
		seg, err := openSegment(s.fs, s.dir+"/"+name, s.opts.NoMmap)
		if err != nil {
			return fmt.Errorf("store: reopen compacted segment: %w", err)
		}
		keep := v.segs
		if old != nil {
			keep = nil
		}
		next := &segView{
			segs:  append(append([]*Segment(nil), keep...), seg),
			delta: rdf.NewGraphWithDict(s.dict),
		}
		swaps = append(swaps, swap{src: src, prev: v, next: next, old: old})
	}
	if len(swaps) == 0 && s.fingerprint() == s.lastFP {
		return nil
	}
	// Stage the new views so the manifest describes them, then commit.
	// Only after the manifest is durable do readers see the new
	// generation; a failure before that leaves the old views (and the
	// old manifest) fully intact.
	for _, sw := range swaps {
		sw.src.view.Store(sw.next)
	}
	if err := s.writeManifest(); err != nil {
		for _, sw := range swaps {
			sw.src.view.Store(sw.prev)
		}
		return err
	}
	for _, sw := range swaps {
		s.retired = append(s.retired, sw.old...)
	}
	s.cleanup()
	return nil
}

// Checkpoint persists the current state in place: the dictionary tail
// is appended, each dirty source's delta is serialized (small — the
// segments are immutable and already on disk), and a new manifest
// committed. Returns false without touching the disk when nothing
// changed since the last manifest write — the skip-if-clean contract
// the server's episode loop relies on.
func (s *Set) Checkpoint() (bool, error) {
	if s.fingerprint() == s.lastFP {
		return false, nil
	}
	if err := s.writeManifest(); err != nil {
		return false, err
	}
	s.cleanup()
	return true, nil
}

// writeManifest makes the current in-memory state durable: dict tail,
// delta files, entity/link files, then the manifest itself, atomically
// and in that order.
func (s *Set) writeManifest() error {
	if err := s.appendDictTail(); err != nil {
		return err
	}
	gen := s.gen.Load() + 1
	m := manifest{
		Version:    manifestVersion,
		Meta:       s.opts.Meta,
		Generation: gen,
		Seq:        s.seq,
		DictTerms:  s.dictTerms,
		DictBytes:  s.dictBytes,
	}
	newDeltas := make(map[string]string, len(s.sources))
	for _, src := range s.sources {
		v := src.view.Load()
		ms := manifestSource{Name: src.name}
		for _, seg := range v.segs {
			ms.Segments = append(ms.Segments, pathBase(seg.path))
		}
		if v.delta.Size() > 0 {
			dn := fmt.Sprintf("%s-delta-%06d.bin", src.name, gen)
			if err := s.writeDelta(dn, v.delta); err != nil {
				return err
			}
			ms.Delta = dn
			newDeltas[src.name] = dn
		}
		if ids, ok := s.entities[src.name]; ok {
			en := src.name + ".ent"
			if err := s.writeBlobOnce(en, encodeEntities(ids)); err != nil {
				return err
			}
			ms.Entities = en
		}
		m.Sources = append(m.Sources, ms)
	}
	if s.hasLinks {
		if err := s.writeBlobOnce(linksName, encodeLinks(s.links)); err != nil {
			return err
		}
		m.Links = linksName
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encode manifest: %w", err)
	}
	if err := s.writeFileAtomic(manifestName, append(data, '\n')); err != nil {
		return err
	}
	s.gen.Store(gen)
	s.deltaFiles = newDeltas
	s.lastFP = s.fingerprint()
	return nil
}

// appendDictTail persists dictionary terms interned since the last
// manifest. The file is append-only; the manifest pins the valid byte
// count, so the tail of a failed append is truncated before the next
// one.
func (s *Set) appendDictTail() error {
	if s.dict.Len() == s.dictTerms {
		return nil
	}
	path := s.dir + "/" + dictName
	if s.dictBytes > 0 {
		if err := s.fs.Truncate(path, s.dictBytes); err != nil {
			return fmt.Errorf("store: truncate dict: %w", err)
		}
	}
	var buf []byte
	for id := s.dictTerms + 1; id <= s.dict.Len(); id++ {
		buf = appendTerm(buf, s.dict.Term(rdf.ID(id)))
	}
	f, err := s.fs.OpenAppend(path)
	if err != nil {
		return fmt.Errorf("store: open dict: %w", err)
	}
	_, werr := f.Write(buf)
	if werr == nil {
		werr = f.Sync()
	}
	if err := f.Close(); werr == nil {
		werr = err
	}
	if werr != nil {
		return fmt.Errorf("store: append dict: %w", werr)
	}
	s.dictTerms = s.dict.Len()
	s.dictBytes += int64(len(buf))
	return nil
}

// writeDelta serializes a delta graph to a fresh, uniquely named file.
func (s *Set) writeDelta(name string, g *rdf.Graph) error {
	payload := make([]byte, 0, 16+g.Size()*6)
	payload = binary.AppendUvarint(payload, uint64(g.Size()))
	g.ForEachMatchIDs(0, 0, 0, false, false, false, func(sub, p, o rdf.ID) bool {
		payload = binary.AppendUvarint(payload, uint64(sub))
		payload = binary.AppendUvarint(payload, uint64(p))
		payload = binary.AppendUvarint(payload, uint64(o))
		return true
	})
	return s.writeFileDurable(name, blobBytes("ALXDLT01", payload))
}

// writeBlobOnce writes an immutable file unless it already exists.
func (s *Set) writeBlobOnce(name string, data []byte) error {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: readdir %s: %w", s.dir, err)
	}
	for _, n := range names {
		if n == name {
			return nil
		}
	}
	return s.writeFileDurable(name, data)
}

// writeFileDurable writes a uniquely named file and fsyncs it. No
// rename dance: the file only becomes live when a later manifest
// references it.
func (s *Set) writeFileDurable(name string, data []byte) error {
	f, err := s.fs.Create(s.dir + "/" + name)
	if err != nil {
		return fmt.Errorf("store: create %s: %w", name, err)
	}
	_, werr := f.Write(data)
	if werr == nil {
		werr = f.Sync()
	}
	if err := f.Close(); werr == nil {
		werr = err
	}
	if werr != nil {
		return fmt.Errorf("store: write %s: %w", name, werr)
	}
	return nil
}

// writeFileAtomic writes name via tmp + fsync + rename + dirsync: the
// manifest protocol.
func (s *Set) writeFileAtomic(name string, data []byte) error {
	tmp := s.dir + "/" + name + ".tmp"
	if err := s.writeFileDurable(name+".tmp", data); err != nil {
		return err
	}
	if err := s.fs.Rename(tmp, s.dir+"/"+name); err != nil {
		return fmt.Errorf("store: rename %s: %w", name, err)
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return fmt.Errorf("store: sync dir %s: %w", s.dir, err)
	}
	return nil
}

// cleanup removes files the current manifest does not reference: the
// debris of superseded generations and torn compactions. Best-effort;
// failures leave garbage, never break correctness.
func (s *Set) cleanup() {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return
	}
	live := map[string]bool{manifestName: true, dictName: true, linksName: true}
	for _, src := range s.sources {
		for _, seg := range src.view.Load().segs {
			live[pathBase(seg.path)] = true
		}
		live[src.name+".ent"] = true
	}
	for _, dn := range s.deltaFiles {
		live[dn] = true
	}
	for _, n := range names {
		if live[n] {
			continue
		}
		if strings.HasSuffix(n, ".seg") || strings.HasSuffix(n, ".tmp") ||
			strings.HasSuffix(n, ".ent") || strings.HasSuffix(n, "-delta.bin") ||
			strings.Contains(n, "-delta-") {
			s.fs.Remove(s.dir + "/" + n) //lint:ignore syncerr best-effort debris removal
		}
	}
}

// Close releases every mapped segment, including retired ones.
func (s *Set) Close() error {
	var first error
	for _, src := range s.sources {
		for _, seg := range src.view.Load().segs {
			if err := seg.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	for _, seg := range s.retired {
		if err := seg.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.retired = nil
	return first
}

// Open cold-starts a store set from dir: the manifest is read, the
// dictionary loaded, every segment mmap'd (no parsing — the OS pages
// data in on demand) and the small deltas replayed. Returns an error
// wrapping ErrNoStore when dir has no manifest, and an error when
// opts.Meta does not match the manifest's stamp (the store was built
// from different data, so its IDs would be meaningless).
func Open(dir string, opts Options) (*Set, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = wal.OS{}
	}
	r, err := fsys.Open(dir + "/" + manifestName)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w in %s", ErrNoStore, dir)
		}
		return nil, fmt.Errorf("store: open manifest: %w", err)
	}
	data, rerr := io.ReadAll(r)
	if cerr := r.Close(); rerr == nil {
		rerr = cerr
	}
	if rerr != nil {
		return nil, fmt.Errorf("store: read manifest: %w", rerr)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("store: parse manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("store: manifest version %d not supported", m.Version)
	}
	if opts.Meta != "" && m.Meta != opts.Meta {
		return nil, fmt.Errorf("store: built from %q, want %q — rebuild with a fresh -data dir", m.Meta, opts.Meta)
	}
	opts.Meta = m.Meta
	s := &Set{
		dir:        dir,
		fs:         fsys,
		opts:       opts,
		dict:       rdf.NewDict(),
		seq:        m.Seq,
		byName:     make(map[string]*Segmented),
		entities:   make(map[string][]rdf.ID),
		deltaFiles: make(map[string]string),
		dictTerms:  m.DictTerms,
		dictBytes:  m.DictBytes,
	}
	s.gen.Store(m.Generation)
	if m.DictBytes > 0 {
		if err := s.loadDict(m); err != nil {
			return nil, err
		}
	}
	for _, ms := range m.Sources {
		src, err := s.AddSource(ms.Name)
		if err != nil {
			return nil, err
		}
		v := &segView{delta: rdf.NewGraphWithDict(s.dict)}
		for _, segName := range ms.Segments {
			seg, err := openSegment(fsys, dir+"/"+segName, opts.NoMmap)
			if err != nil {
				s.Close() //lint:ignore syncerr the open error wins; close is best-effort cleanup
				return nil, err
			}
			v.segs = append(v.segs, seg)
		}
		if ms.Delta != "" {
			if err := s.loadDelta(ms.Delta, v.delta); err != nil {
				s.Close() //lint:ignore syncerr the open error wins; close is best-effort cleanup
				return nil, err
			}
			s.deltaFiles[ms.Name] = ms.Delta
		}
		src.view.Store(v)
		if ms.Entities != "" {
			ids, err := s.readEntities(ms.Entities)
			if err != nil {
				s.Close() //lint:ignore syncerr the open error wins; close is best-effort cleanup
				return nil, err
			}
			s.entities[ms.Name] = ids
		}
	}
	if m.Links != "" {
		ls, err := s.readLinks(m.Links)
		if err != nil {
			s.Close() //lint:ignore syncerr the open error wins; close is best-effort cleanup
			return nil, err
		}
		s.links, s.hasLinks = ls, true
	}
	s.lastFP = s.fingerprint()
	s.cleanup()
	return s, nil
}

func (s *Set) loadDict(m manifest) error {
	r, err := s.fs.Open(s.dir + "/" + dictName)
	if err != nil {
		return fmt.Errorf("store: open dict: %w", err)
	}
	data, rerr := io.ReadAll(r)
	if cerr := r.Close(); rerr == nil {
		rerr = cerr
	}
	if rerr != nil {
		return fmt.Errorf("store: read dict: %w", rerr)
	}
	if int64(len(data)) < m.DictBytes {
		return fmt.Errorf("store: dict file truncated: %d bytes, manifest says %d", len(data), m.DictBytes)
	}
	buf := data[:m.DictBytes]
	for i := 0; i < m.DictTerms; i++ {
		t, rest, err := readTerm(buf)
		if err != nil {
			return fmt.Errorf("store: dict term %d: %w", i+1, err)
		}
		buf = rest
		if got := s.dict.Intern(t); got != rdf.ID(i+1) {
			return fmt.Errorf("store: dict term %d interned as %d (duplicate?)", i+1, got)
		}
	}
	if len(buf) != 0 {
		return fmt.Errorf("store: dict file has %d trailing bytes", len(buf))
	}
	return nil
}

func (s *Set) loadDelta(name string, g *rdf.Graph) error {
	payload, err := s.readBlob(name, "ALXDLT01")
	if err != nil {
		return err
	}
	n, payload, err := readUvarint(payload)
	if err != nil {
		return fmt.Errorf("store: delta %s: %w", name, err)
	}
	for i := uint64(0); i < n; i++ {
		var sub, p, o uint64
		if sub, payload, err = readUvarint(payload); err == nil {
			if p, payload, err = readUvarint(payload); err == nil {
				o, payload, err = readUvarint(payload)
			}
		}
		if err != nil {
			return fmt.Errorf("store: delta %s triple %d: %w", name, i, err)
		}
		g.InsertIDs(rdf.ID(sub), rdf.ID(p), rdf.ID(o))
	}
	return nil
}

func (s *Set) readEntities(name string) ([]rdf.ID, error) {
	payload, err := s.readBlob(name, "ALXENT01")
	if err != nil {
		return nil, err
	}
	n, payload, err := readUvarint(payload)
	if err != nil {
		return nil, fmt.Errorf("store: entities %s: %w", name, err)
	}
	ids := make([]rdf.ID, 0, n)
	for i := uint64(0); i < n; i++ {
		var v uint64
		if v, payload, err = readUvarint(payload); err != nil {
			return nil, fmt.Errorf("store: entities %s: %w", name, err)
		}
		ids = append(ids, rdf.ID(v))
	}
	return ids, nil
}

func (s *Set) readLinks(name string) ([]links.Link, error) {
	payload, err := s.readBlob(name, "ALXLNK01")
	if err != nil {
		return nil, err
	}
	n, payload, err := readUvarint(payload)
	if err != nil {
		return nil, fmt.Errorf("store: links: %w", err)
	}
	ls := make([]links.Link, 0, n)
	for i := uint64(0); i < n; i++ {
		var e1, e2 uint64
		if e1, payload, err = readUvarint(payload); err == nil {
			e2, payload, err = readUvarint(payload)
		}
		if err != nil {
			return nil, fmt.Errorf("store: links: %w", err)
		}
		ls = append(ls, links.Link{E1: rdf.ID(e1), E2: rdf.ID(e2)})
	}
	return ls, nil
}

// readBlob reads and validates a magic+payload+crc file.
func (s *Set) readBlob(name, magic string) ([]byte, error) {
	r, err := s.fs.Open(s.dir + "/" + name)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", name, err)
	}
	data, rerr := io.ReadAll(r)
	if cerr := r.Close(); rerr == nil {
		rerr = cerr
	}
	if rerr != nil {
		return nil, fmt.Errorf("store: read %s: %w", name, rerr)
	}
	if len(data) < len(magic)+4 || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("store: %s: bad header", name)
	}
	payload := data[len(magic) : len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(payload) != want {
		return nil, fmt.Errorf("store: %s: checksum mismatch", name)
	}
	return payload, nil
}

// manifest is the JSON root of a store directory generation.
type manifest struct {
	Version    int              `json:"version"`
	Meta       string           `json:"meta,omitempty"`
	Generation uint64           `json:"generation"`
	Seq        uint64           `json:"seq"`
	DictTerms  int              `json:"dict_terms"`
	DictBytes  int64            `json:"dict_bytes"`
	Links      string           `json:"links,omitempty"`
	Sources    []manifestSource `json:"sources"`
}

type manifestSource struct {
	Name     string   `json:"name"`
	Segments []string `json:"segments,omitempty"`
	Delta    string   `json:"delta,omitempty"`
	Entities string   `json:"entities,omitempty"`
}

func blobBytes(magic string, payload []byte) []byte {
	out := make([]byte, 0, len(magic)+len(payload)+4)
	out = append(out, magic...)
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
}

func encodeEntities(ids []rdf.ID) []byte {
	payload := binary.AppendUvarint(nil, uint64(len(ids)))
	for _, id := range ids {
		payload = binary.AppendUvarint(payload, uint64(id))
	}
	return blobBytes("ALXENT01", payload)
}

func encodeLinks(ls []links.Link) []byte {
	payload := binary.AppendUvarint(nil, uint64(len(ls)))
	for _, l := range ls {
		payload = binary.AppendUvarint(payload, uint64(l.E1))
		payload = binary.AppendUvarint(payload, uint64(l.E2))
	}
	return blobBytes("ALXLNK01", payload)
}

// appendTerm encodes one dictionary term: kind byte plus three
// length-prefixed strings.
func appendTerm(buf []byte, t rdf.Term) []byte {
	buf = append(buf, byte(t.Kind))
	for _, s := range []string{t.Value, t.Datatype, t.Lang} {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	return buf
}

func readTerm(buf []byte) (rdf.Term, []byte, error) {
	if len(buf) < 1 {
		return rdf.Term{}, nil, errors.New("short term record")
	}
	t := rdf.Term{Kind: rdf.TermKind(buf[0])}
	buf = buf[1:]
	for i := 0; i < 3; i++ {
		n, rest, err := readUvarint(buf)
		if err != nil || uint64(len(rest)) < n {
			return rdf.Term{}, nil, errors.New("short term string")
		}
		str := string(rest[:n])
		buf = rest[n:]
		switch i {
		case 0:
			t.Value = str
		case 1:
			t.Datatype = str
		default:
			t.Lang = str
		}
	}
	return t, buf, nil
}

func readUvarint(buf []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, errors.New("bad uvarint")
	}
	return v, buf[n:], nil
}

func pathBase(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}
