package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"strings"

	"alex/internal/links"
	"alex/internal/rdf"
	"alex/internal/wal"
)

// On-disk layout of a store directory:
//
//	<src>.seg       the source's triples, one rdf.Index image (segment.go)
//	<src>.ent       the source's linkable-entity ID list
//	links.bin       the initial candidate link set
//	dict.bin        the dictionary terms in ID order
//	MANIFEST.json   the commit record
//
// The .ent, links and dict files are each one wal record (EncodeRecord:
// length, CRC32, seq 0) whose payload starts with the file's magic, so a
// flipped byte fails Open by name. The segments and the manifest are
// installed by wal.WriteFileAtomic (a segment's data pages carry no
// checksum: rdf.Index checks only its footer); the framed files by
// wal.WriteFile. The directory is written once, by Compact. Every other
// file is durable before the manifest is renamed into place, so a crash
// at any point leaves either a complete store or no manifest at all —
// Open reports ErrNoStore and the caller builds again over the same
// directory, whose fixed file names overwrite the torn build's debris.
const (
	manifestName = "MANIFEST.json"
	dictName     = "dict.bin"
	linksName    = "links.bin"

	entMagic   = "ALXENT01"
	linksMagic = "ALXLNK01"
	dictMagic  = "ALXDCT01"

	manifestVersion = 4
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
	// Meta is an identity stamp for the data the store was built from
	// (dataset paths or synth profile). Open fails when it does not
	// match, because dictionary IDs are only meaningful for the exact
	// inputs the store was built with.
	Meta string
}

// Set is a directory of disk-backed triple stores sharing one
// dictionary: the unit alexd persists. A build is Create, AddSource,
// InsertIDs on the sources, SetEntities/SetInitialLinks, then Compact —
// single-writer, before anything reads. After the commit (or Open) the
// set never changes and its stores are safe for concurrent reads.
type Set struct {
	dir  string
	fs   wal.FS
	opts Options

	dict      *rdf.Dict
	sources   []*Segmented
	byName    map[string]*Segmented
	entities  map[string][]rdf.ID
	links     []links.Link
	hasLinks  bool
	committed bool
}

// Create starts an empty store set in dir. It refuses a directory that
// already holds a committed store: a store is written once.
func Create(dir string, dict *rdf.Dict, opts Options) (*Set, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = wal.OS{}
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("store: mkdir %s: %w", dir, err)
	}
	// Only a manifest known to be absent lets a build start: an I/O or
	// permission error on the probe could hide a committed store the
	// new manifest would be renamed over.
	if _, err := wal.ReadFile(fsys, dir+"/"+manifestName); err == nil {
		return nil, fmt.Errorf("store: %s already holds a committed store", dir)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("store: probe %s/%s: %w", dir, manifestName, err)
	}
	if dict == nil {
		dict = rdf.NewDict()
	}
	return &Set{
		dir:      dir,
		fs:       fsys,
		opts:     opts,
		dict:     dict,
		byName:   make(map[string]*Segmented),
		entities: make(map[string][]rdf.ID),
	}, nil
}

// AddSource registers a new named store. Names become file name stems,
// so they are restricted to [a-zA-Z0-9_-].
func (s *Set) AddSource(name string) (*Segmented, error) {
	if s.committed {
		return nil, fmt.Errorf("store: AddSource %q on the committed store in %s", name, s.dir)
	}
	if name == "" || strings.IndexFunc(name, func(r rune) bool {
		return !(r == '-' || r == '_' || (r >= '0' && r <= '9') ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z'))
	}) >= 0 {
		return nil, fmt.Errorf("store: invalid source name %q", name)
	}
	if _, dup := s.byName[name]; dup {
		return nil, fmt.Errorf("store: duplicate source %q", name)
	}
	src := &Segmented{set: s, name: name, seg: &Segment{}}
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

// Compact commits the build: per source one segment file and the
// entity list, then the initial links and the whole dictionary, then
// MANIFEST.json last. It is the one write a store gets; afterwards the
// sources read their segments and refuse further inserts. A failure
// before the manifest is renamed into place commits nothing, and the
// sources still read as empty.
func (s *Set) Compact() error {
	if s.committed {
		return fmt.Errorf("store: %s is already committed", s.dir)
	}
	if err := s.writeFiles(); err != nil {
		return err
	}
	s.committed = true
	for _, src := range s.sources {
		seg, err := openSegment(s.fs, s.dir+"/"+src.name+".seg", s.opts.NoMmap)
		if err != nil {
			return fmt.Errorf("store: open written segment: %w", err)
		}
		src.seg, src.build = seg, nil
	}
	return nil
}

// Checkpoint commits an uncommitted set as Compact does and reports
// true; a committed set has nothing to write and reports false.
func (s *Set) Checkpoint() (bool, error) {
	if s.committed {
		return false, nil
	}
	if err := s.Compact(); err != nil {
		return false, err
	}
	return true, nil
}

// writeFiles writes every file of the store, the manifest last.
func (s *Set) writeFiles() error {
	m := manifest{Version: manifestVersion, Meta: s.opts.Meta}
	for _, src := range s.sources {
		ms := manifestSource{Name: src.name, Segment: src.name + ".seg"}
		if err := wal.WriteFileAtomic(s.fs, s.dir+"/"+ms.Segment, rdf.EncodeIndex(src.build)); err != nil {
			return fmt.Errorf("store: write %s: %w", ms.Segment, err)
		}
		if ids, ok := s.entities[src.name]; ok {
			ms.Entities = src.name + ".ent"
			if err := wal.WriteFile(s.fs, s.dir+"/"+ms.Entities, encodeEntities(ids)); err != nil {
				return fmt.Errorf("store: write %s: %w", ms.Entities, err)
			}
		}
		m.Sources = append(m.Sources, ms)
	}
	if s.hasLinks {
		m.Links = linksName
		if err := wal.WriteFile(s.fs, s.dir+"/"+linksName, encodeLinks(s.links)); err != nil {
			return fmt.Errorf("store: write %s: %w", linksName, err)
		}
	}
	dict := []byte(dictMagic)
	for id := 1; id <= s.dict.Len(); id++ {
		dict = appendTerm(dict, s.dict.Term(rdf.ID(id)))
	}
	m.DictTerms = s.dict.Len()
	if err := wal.WriteFile(s.fs, s.dir+"/"+dictName, wal.EncodeRecord(0, dict)); err != nil {
		return fmt.Errorf("store: write %s: %w", dictName, err)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encode manifest: %w", err)
	}
	if err := wal.WriteFileAtomic(s.fs, s.dir+"/"+manifestName, append(data, '\n')); err != nil {
		return fmt.Errorf("store: write %s: %w", manifestName, err)
	}
	return nil
}

// Close releases every mapped segment.
func (s *Set) Close() error {
	var first error
	for _, src := range s.sources {
		if err := src.seg.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Open cold-starts a store set from dir: the manifest is read, the
// dictionary loaded and every segment mmap'd (no parsing — the OS pages
// data in on demand). Returns an error wrapping ErrNoStore when dir has
// no manifest, and an error when opts.Meta does not match the
// manifest's stamp (the store was built from different data, so its
// IDs would be meaningless).
func Open(dir string, opts Options) (*Set, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = wal.OS{}
	}
	data, err := wal.ReadFile(fsys, dir+"/"+manifestName)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w in %s", ErrNoStore, dir)
	}
	if err != nil {
		return nil, fmt.Errorf("store: read manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("store: parse manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("store: manifest version %d not supported — rebuild with a fresh -data dir", m.Version)
	}
	if opts.Meta != "" && m.Meta != opts.Meta {
		return nil, fmt.Errorf("store: built from %q, want %q — rebuild with a fresh -data dir", m.Meta, opts.Meta)
	}
	opts.Meta = m.Meta
	s := &Set{
		dir:      dir,
		fs:       fsys,
		opts:     opts,
		dict:     rdf.NewDict(),
		byName:   make(map[string]*Segmented),
		entities: make(map[string][]rdf.ID),
	}
	if err := s.load(m); err != nil {
		s.Close() //lint:ignore syncerr the open error wins; close is best-effort cleanup
		return nil, err
	}
	s.committed = true
	return s, nil
}

// load reads everything the manifest references into s.
func (s *Set) load(m manifest) error {
	if err := s.loadDict(m); err != nil {
		return err
	}
	for _, ms := range m.Sources {
		src, err := s.AddSource(ms.Name)
		if err != nil {
			return err
		}
		seg, err := openSegment(s.fs, s.dir+"/"+ms.Segment, s.opts.NoMmap)
		if err != nil {
			return err
		}
		src.seg = seg
		if ms.Entities != "" {
			ids, err := s.readEntities(ms.Entities)
			if err != nil {
				return err
			}
			s.entities[ms.Name] = ids
		}
	}
	if m.Links != "" {
		ls, err := s.readLinks(m.Links)
		if err != nil {
			return err
		}
		s.links, s.hasLinks = ls, true
	}
	return nil
}

func (s *Set) loadDict(m manifest) error {
	return s.readFramed(dictName, dictMagic, func(f *wal.Fields) {
		for i := 1; i <= m.DictTerms; i++ {
			t := readTerm(f)
			if f.Err() != nil {
				return
			}
			if got := s.dict.Intern(t); got != rdf.ID(i) {
				f.Fail(fmt.Errorf("term %d interned as %d (duplicate?)", i, got))
			}
		}
	})
}

func (s *Set) readEntities(name string) (ids []rdf.ID, err error) {
	err = s.readFramed(name, entMagic, func(f *wal.Fields) {
		ids = make([]rdf.ID, f.Count())
		for i := range ids {
			ids[i] = rdf.ID(f.Uvarint())
		}
	})
	return ids, err
}

func (s *Set) readLinks(name string) (ls []links.Link, err error) {
	err = s.readFramed(name, linksMagic, func(f *wal.Fields) {
		ls = make([]links.Link, f.Count())
		for i := range ls {
			ls[i] = links.Link{E1: rdf.ID(f.Uvarint()), E2: rdf.ID(f.Uvarint())}
		}
	})
	return ls, err
}

// readFramed reads name, one wal record whose payload starts with
// magic, and hands the fields after the magic to read, which must
// consume them all. An error names the file.
func (s *Set) readFramed(name, magic string, read func(*wal.Fields)) error {
	data, err := wal.ReadFile(s.fs, s.dir+"/"+name)
	if err != nil {
		return fmt.Errorf("store: read %s: %w", name, err)
	}
	_, payload, n, err := wal.DecodeRecord(data)
	if err == nil && n != len(data) {
		err = fmt.Errorf("%d trailing bytes", len(data)-n)
	}
	if err == nil && !bytes.HasPrefix(payload, []byte(magic)) {
		err = errors.New("bad magic")
	}
	if err == nil {
		f := wal.NewFields(payload[len(magic):])
		read(f)
		err = f.Done()
	}
	if err != nil {
		return fmt.Errorf("store: %s: %w", name, err)
	}
	return nil
}

// manifest is the JSON commit record of a store directory.
type manifest struct {
	Version   int              `json:"version"`
	Meta      string           `json:"meta,omitempty"`
	DictTerms int              `json:"dict_terms"`
	Links     string           `json:"links,omitempty"`
	Sources   []manifestSource `json:"sources"`
}

type manifestSource struct {
	Name     string `json:"name"`
	Segment  string `json:"segment"`
	Entities string `json:"entities,omitempty"`
}

func encodeEntities(ids []rdf.ID) []byte {
	payload := binary.AppendUvarint([]byte(entMagic), uint64(len(ids)))
	for _, id := range ids {
		payload = binary.AppendUvarint(payload, uint64(id))
	}
	return wal.EncodeRecord(0, payload)
}

func encodeLinks(ls []links.Link) []byte {
	payload := binary.AppendUvarint([]byte(linksMagic), uint64(len(ls)))
	for _, l := range ls {
		payload = binary.AppendUvarint(payload, uint64(l.E1))
		payload = binary.AppendUvarint(payload, uint64(l.E2))
	}
	return wal.EncodeRecord(0, payload)
}

// appendTerm encodes one dictionary term: kind byte (a kind is below
// 0x80, so the byte is its uvarint) plus three length-prefixed strings.
func appendTerm(buf []byte, t rdf.Term) []byte {
	buf = append(buf, byte(t.Kind))
	for _, s := range []string{t.Value, t.Datatype, t.Lang} {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	return buf
}

// readTerm reads one term appendTerm wrote.
func readTerm(f *wal.Fields) rdf.Term {
	t := rdf.Term{Kind: rdf.TermKind(f.Uvarint())}
	t.Value = f.Text()
	t.Datatype = f.Text()
	t.Lang = f.Text()
	return t
}
