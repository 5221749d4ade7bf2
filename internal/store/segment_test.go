package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"

	"alex/internal/rdf"
	"alex/internal/wal"
)

// randomTriples returns n random (possibly duplicate) triples over a
// small ID universe, so every bound-position combination has matches.
func randomTriples(rng *rand.Rand, n, universe int) []triple {
	ts := make([]triple, n)
	for i := range ts {
		ts[i] = triple{
			s: rdf.ID(rng.Intn(universe) + 1),
			p: rdf.ID(rng.Intn(universe/4+1) + 1),
			o: rdf.ID(rng.Intn(universe) + 1),
		}
	}
	return ts
}

// graphOf loads triples into a fresh rdf.Graph (the reference
// implementation).
func graphOf(ts []triple) *rdf.Graph {
	g := rdf.NewGraph()
	for _, t := range ts {
		g.InsertIDs(t.s, t.p, t.o)
	}
	return g
}

// buildSegment writes and reopens one segment from the triples.
func buildSegment(t *testing.T, ts []triple, noMmap bool) *Segment {
	t.Helper()
	dir := t.TempDir()
	cp := append([]triple(nil), ts...)
	if err := writeSegment(nil2fs(), dir, "t-000001.seg", cp); err != nil {
		t.Fatalf("writeSegment: %v", err)
	}
	seg, err := openSegment(nil2fs(), dir+"/t-000001.seg", noMmap)
	if err != nil {
		t.Fatalf("openSegment: %v", err)
	}
	t.Cleanup(func() {
		if err := seg.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return seg
}

// assertProbe checks one probe — the positions set in mask (1 S, 2 P,
// 4 O) bound to s, p, o — against the reference graph: countMatch must
// equal its count and forEachMatch must yield its triples, each once.
func assertProbe(t testing.TB, seg *Segment, g *rdf.Graph, mask int, s, p, o rdf.ID) {
	t.Helper()
	haveS, haveP, haveO := mask&1 != 0, mask&2 != 0, mask&4 != 0
	if got, want := seg.countMatch(s, p, o, haveS, haveP, haveO), g.CountMatch(s, p, o, haveS, haveP, haveO); got != want {
		t.Fatalf("countMatch mask=%03b (%d,%d,%d): %d want %d", mask, s, p, o, got, want)
	}
	want := map[triple]bool{}
	g.ForEachMatchIDs(s, p, o, haveS, haveP, haveO, func(ts, tp, to rdf.ID) bool {
		want[triple{ts, tp, to}] = true
		return true
	})
	seg.forEachMatch(s, p, o, haveS, haveP, haveO, func(ts, tp, to rdf.ID) bool {
		if !want[triple{ts, tp, to}] {
			t.Fatalf("forEachMatch mask=%03b (%d,%d,%d): unexpected or repeated (%d,%d,%d)", mask, s, p, o, ts, tp, to)
		}
		delete(want, triple{ts, tp, to})
		return true
	})
	if len(want) != 0 {
		t.Fatalf("forEachMatch mask=%03b (%d,%d,%d): %d triples missing", mask, s, p, o, len(want))
	}
}

// assertPresentPrefixes probes every bound mask with the components of
// every triple in g, so every non-empty record range of every section
// is checked, not only misses.
func assertPresentPrefixes(t testing.TB, seg *Segment, g *rdf.Graph) {
	t.Helper()
	type probe struct {
		mask int
		t    triple
	}
	seen := map[probe]bool{}
	g.ForEachMatchIDs(0, 0, 0, false, false, false, func(s, p, o rdf.ID) bool {
		for mask := 1; mask < 8; mask++ {
			pr := probe{mask, triple{s, p, o}}
			if mask&1 == 0 {
				pr.t.s = 0
			}
			if mask&2 == 0 {
				pr.t.p = 0
			}
			if mask&4 == 0 {
				pr.t.o = 0
			}
			seen[pr] = true
		}
		return true
	})
	for pr := range seen {
		assertProbe(t, seg, g, pr.mask, pr.t.s, pr.t.p, pr.t.o)
	}
}

// assertSegmentMatchesGraph checks scan and count identity for every
// bound-position combination over a sample of IDs.
func assertSegmentMatchesGraph(t *testing.T, seg *Segment, g *rdf.Graph, universe int) {
	t.Helper()
	if seg.Count() != g.Size() {
		t.Fatalf("count: segment %d, graph %d", seg.Count(), g.Size())
	}
	assertProbe(t, seg, g, 0, 0, 0, 0)
	for mask := 1; mask < 8; mask++ {
		for probe := 0; probe < universe+2; probe++ {
			assertProbe(t, seg, g, mask, rdf.ID(probe), rdf.ID(probe%(universe/4+2)), rdf.ID(universe+1-probe))
		}
	}
}

// TestSegmentBoundsSpanPages: a leading ID whose records fill more
// than two pages in each of SPO, POS and OSP, probed at every present
// prefix and with every component below the first posting ID, present,
// or above the last.
func TestSegmentBoundsSpanPages(t *testing.T) {
	const wide = 3*recsPerPage + 17
	ts := randomTriples(rand.New(rand.NewSource(11)), 500, 40)
	for i := 0; i < wide; i++ {
		ts = append(ts,
			triple{7, rdf.ID(10 + i%5), rdf.ID(100 + i)},
			triple{rdf.ID(2000 + i), 3, rdf.ID(100 + i%7)},
			triple{rdf.ID(2000 + i), rdf.ID(10 + i%3), 5})
	}
	g := graphOf(ts)
	seg := buildSegment(t, ts, false)
	for _, c := range []struct {
		sec int
		id  uint32
	}{{secSPO, 7}, {secPOS, 3}, {secOSP, 5}} {
		lo, hi := seg.bounds(c.sec, [3]uint32{c.id}, 1)
		if pages := (hi-1)/recsPerPage - lo/recsPerPage + 1; pages < 3 {
			t.Fatalf("section %d ID %d: records [%d, %d) span %d pages, want ≥ 3", c.sec, c.id, lo, hi, pages)
		}
	}
	assertPresentPrefixes(t, seg, g)
	above := rdf.ID(2000 + wide)
	vals := []rdf.ID{0, 3, 5, 7, above}
	for mask := 1; mask < 8; mask++ {
		for _, s := range vals {
			for _, p := range vals {
				for _, o := range vals {
					assertProbe(t, seg, g, mask, s, p, o)
				}
			}
		}
	}
}

// TestSegmentEmpty: a written segment with no triples and the empty
// segment an uncommitted source reads from match nothing on every mask.
func TestSegmentEmpty(t *testing.T) {
	for name, seg := range map[string]*Segment{
		"written":     buildSegment(t, nil, false),
		"uncommitted": {},
	} {
		t.Run(name, func(t *testing.T) {
			g := rdf.NewGraph()
			for mask := 0; mask < 8; mask++ {
				assertProbe(t, seg, g, mask, 0, 0, 0)
				assertProbe(t, seg, g, mask, 1, 1, 1)
			}
			if ids := seg.postingIDs(secSPO); len(ids) != 0 {
				t.Fatalf("subjects %v, want none", ids)
			}
		})
	}
}

// TestSegmentLookupAllocs pins a bound lookup on a committed store at
// zero allocations: the posting-table search and the in-range searches
// are plain loops over the mapped bytes.
func TestSegmentLookupAllocs(t *testing.T) {
	set, err := Create(t.TempDir(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	src, err := set.AddSource("ds1")
	if err != nil {
		t.Fatal(err)
	}
	ts := randomTriples(rand.New(rand.NewSource(6)), 2000, 40)
	fillSource(t, set, src, ts)
	if err := set.Compact(); err != nil {
		t.Fatal(err)
	}
	probe, n := ts[0], 0
	fn := func(_, _, _ rdf.ID) bool { n++; return true }
	if a := testing.AllocsPerRun(100, func() { src.ForEachMatchIDs(probe.s, probe.p, 0, true, true, false, fn) }); a != 0 {
		t.Errorf("S+P-bound ForEachMatchIDs: %v allocations, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { n += src.CountMatch(0, probe.p, probe.o, false, true, true) }); a != 0 {
		t.Errorf("P+O-bound CountMatch: %v allocations, want 0", a)
	}
	if n == 0 {
		t.Fatal("the probes matched nothing")
	}
}

func TestSegmentMatchesGraph(t *testing.T) {
	for _, tc := range []struct{ n, universe int }{
		{0, 4}, {1, 4}, {7, 3}, {340, 20}, {341, 20}, {342, 20}, {3000, 40},
	} {
		t.Run(fmt.Sprintf("n=%d", tc.n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.n)*31 + 7))
			ts := randomTriples(rng, tc.n, tc.universe)
			g := graphOf(ts)
			seg := buildSegment(t, ts, false)
			assertSegmentMatchesGraph(t, seg, g, tc.universe)
		})
	}
}

func TestSegmentNoMmapFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ts := randomTriples(rng, 500, 16)
	g := graphOf(ts)
	seg := buildSegment(t, ts, true)
	if seg.mapped {
		t.Fatal("expected heap-loaded segment")
	}
	assertSegmentMatchesGraph(t, seg, g, 16)
}

func TestSegmentPostingEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ts := randomTriples(rng, 800, 25)
	g := graphOf(ts)
	seg := buildSegment(t, ts, false)
	gotS, wantS := seg.postingIDs(secSPO), g.SubjectIDs()
	if len(gotS) != len(wantS) {
		t.Fatalf("subjects: %d vs %d", len(gotS), len(wantS))
	}
	for i := range gotS {
		if gotS[i] != wantS[i] {
			t.Fatalf("subjects[%d]: %d vs %d", i, gotS[i], wantS[i])
		}
	}
	gotP, wantP := seg.postingIDs(secPOS), g.PredicateIDs()
	if fmt.Sprint(gotP) != fmt.Sprint(wantP) {
		t.Fatalf("predicates: %v vs %v", gotP, wantP)
	}
}

func TestSegmentRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ts := randomTriples(rng, 50, 8)
	dir := t.TempDir()
	if err := writeSegment(nil2fs(), dir, "c-000001.seg", ts); err != nil {
		t.Fatalf("writeSegment: %v", err)
	}
	path := dir + "/c-000001.seg"
	seg, err := openSegment(nil2fs(), path, true)
	if err != nil {
		t.Fatalf("openSegment: %v", err)
	}
	data := append([]byte(nil), seg.data...)
	if err := seg.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := parseSegment(path, withFooter(append([]byte(nil), data...), func([]byte) {}), false); err != nil {
		t.Fatalf("a footer with its CRC recomputed but unchanged: %v", err)
	}
	// The SPO posting table starts after its uint32 entry count; entry i
	// is (id, first record) at spo(i) and spo(i)+4.
	spo := func(i int) int { return 4 + 8*i }
	for name, mutate := range map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"bad-magic": func(b []byte) []byte { b[0] ^= 0xff; return b },
		"torn-tail": func(b []byte) []byte { return b[:len(b)-3] },
		"footer-flip": func(b []byte) []byte {
			off := binary_len(b)
			b[off] ^= 0x01
			return b
		},
		// The posting cases recompute the footer CRC, so only the
		// posting-table checks can reject them.
		"posting-ids-out-of-order": func(b []byte) []byte {
			return withFooter(b, func(f []byte) { swapUint32(f[spo(1):], f[spo(2):]) })
		},
		"posting-first-decreasing": func(b []byte) []byte {
			return withFooter(b, func(f []byte) { swapUint32(f[spo(1)+4:], f[spo(2)+4:]) })
		},
		"posting-first-past-count": func(b []byte) []byte {
			return withFooter(b, func(f []byte) {
				last := int(binary.LittleEndian.Uint32(f)) - 1
				binary.LittleEndian.PutUint32(f[spo(last)+4:], uint32(seg.count))
			})
		},
	} {
		t.Run(name, func(t *testing.T) {
			mut := mutate(append([]byte(nil), data...))
			if _, err := parseSegment(path, mut, false); err == nil {
				t.Fatal("corrupt segment accepted")
			}
		})
	}
}

// binary_len returns the footer offset of a segment image, for the
// footer-corruption case.
func binary_len(b []byte) int {
	tr := b[len(b)-segTrailer:]
	return int(uint32(tr[0]) | uint32(tr[1])<<8 | uint32(tr[2])<<16 | uint32(tr[3])<<24)
}

// withFooter applies mutate to segment image b's footer and recomputes
// the trailer CRC over the result.
func withFooter(b []byte, mutate func(footer []byte)) []byte {
	tr := b[len(b)-segTrailer:]
	off, n := binary.LittleEndian.Uint64(tr), binary.LittleEndian.Uint64(tr[8:])
	footer := b[off : off+n]
	mutate(footer)
	binary.LittleEndian.PutUint32(tr[16:], crc32.ChecksumIEEE(footer))
	return b
}

func swapUint32(a, b []byte) {
	x, y := binary.LittleEndian.Uint32(a), binary.LittleEndian.Uint32(b)
	binary.LittleEndian.PutUint32(a, y)
	binary.LittleEndian.PutUint32(b, x)
}

func nil2fs() wal.FS { return wal.OS{} }
