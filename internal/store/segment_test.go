package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"testing"

	"alex/internal/rdf"
	"alex/internal/wal"
)

// The index geometry the tests build against: 12-byte records in
// 4096-byte pages, and the image's trailer length.
const (
	recsPerPage = 4096 / 12
	segTrailer  = 8 + 8 + 4 + 8
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

// encodeSegment returns the segment image of ts.
func encodeSegment(ts []triple) []byte {
	ids := make([]rdf.IDTriple, len(ts))
	for i, t := range ts {
		ids[i] = rdf.IDTriple{S: t.s, P: t.p, O: t.o}
	}
	return rdf.EncodeIndex(ids)
}

// writeSegment writes the segment image of ts to dir/name.
func writeSegment(dir, name string, ts []triple) error {
	return os.WriteFile(dir+"/"+name, encodeSegment(ts), 0o644)
}

// buildSegment writes and reopens one segment from the triples.
func buildSegment(t *testing.T, ts []triple, noMmap bool) *Segment {
	t.Helper()
	dir := t.TempDir()
	if err := writeSegment(dir, "t-000001.seg", ts); err != nil {
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
// 4 O) bound to s, p, o — against the oracle: CountMatch must equal its
// count and ForEachMatchIDs must yield its triples, each once.
func assertProbe(t testing.TB, seg *Segment, g oracle, mask int, s, p, o rdf.ID) {
	t.Helper()
	haveS, haveP, haveO := mask&1 != 0, mask&2 != 0, mask&4 != 0
	if got, want := seg.CountMatch(s, p, o, haveS, haveP, haveO), g.CountMatch(s, p, o, haveS, haveP, haveO); got != want {
		t.Fatalf("CountMatch mask=%03b (%d,%d,%d): %d want %d", mask, s, p, o, got, want)
	}
	want := map[triple]bool{}
	g.ForEachMatchIDs(s, p, o, haveS, haveP, haveO, func(ts, tp, to rdf.ID) bool {
		want[triple{ts, tp, to}] = true
		return true
	})
	seg.ForEachMatchIDs(s, p, o, haveS, haveP, haveO, func(ts, tp, to rdf.ID) bool {
		if !want[triple{ts, tp, to}] {
			t.Fatalf("ForEachMatchIDs mask=%03b (%d,%d,%d): unexpected or repeated (%d,%d,%d)", mask, s, p, o, ts, tp, to)
		}
		delete(want, triple{ts, tp, to})
		return true
	})
	if len(want) != 0 {
		t.Fatalf("ForEachMatchIDs mask=%03b (%d,%d,%d): %d triples missing", mask, s, p, o, len(want))
	}
}

// assertPresentPrefixes probes every bound mask with the components of
// every triple in the oracle, so every non-empty record range of every
// section is checked, not only misses.
func assertPresentPrefixes(t testing.TB, seg *Segment, g oracle) {
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

// assertSegmentMatchesGraph checks scan and count identity with the
// oracle of the segment's input graph for every bound-position
// combination over a sample of IDs.
func assertSegmentMatchesGraph(t *testing.T, seg *Segment, g oracle, universe int) {
	t.Helper()
	if seg.Size() != g.Size() {
		t.Fatalf("count: segment %d, oracle %d", seg.Size(), g.Size())
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
	g := oracleOf(ts)
	seg := buildSegment(t, ts, false)
	for mask, n := range map[int]int{
		1: seg.CountMatch(7, 0, 0, true, false, false),
		2: seg.CountMatch(0, 3, 0, false, true, false),
		4: seg.CountMatch(0, 0, 5, false, false, true),
	} {
		if n < wide { // a range of more than two pages' records spans at least three
			t.Fatalf("mask=%03b: %d records, want ≥ %d", mask, n, wide)
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
			var g oracle
			for mask := 0; mask < 8; mask++ {
				assertProbe(t, seg, g, mask, 0, 0, 0)
				assertProbe(t, seg, g, mask, 1, 1, 1)
			}
			if ids := seg.SubjectIDs(); len(ids) != 0 {
				t.Fatalf("subjects %v, want none", ids)
			}
		})
	}
}

// TestSegmentLookupAllocs pins a bound lookup at zero allocations on a
// committed store and on a loaded rdf.Graph: the posting-table search
// and the in-range searches are plain loops over the index bytes, and
// a graph's built index is one atomic load away.
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
	g := rdf.NewGraph()
	for _, tr := range ts {
		g.InsertIDs(tr.s, tr.p, tr.o)
	}
	g.Size() // the first read builds the index
	for name, st := range map[string]TripleStore{"segmented": src, "graph": g} {
		probe, n := ts[0], 0
		fn := func(_, _, _ rdf.ID) bool { n++; return true }
		if a := testing.AllocsPerRun(100, func() { st.ForEachMatchIDs(probe.s, probe.p, 0, true, true, false, fn) }); a != 0 {
			t.Errorf("%s: S+P-bound ForEachMatchIDs: %v allocations, want 0", name, a)
		}
		if a := testing.AllocsPerRun(100, func() { n += st.CountMatch(0, probe.p, probe.o, false, true, true) }); a != 0 {
			t.Errorf("%s: P+O-bound CountMatch: %v allocations, want 0", name, a)
		}
		if n == 0 {
			t.Fatalf("%s: the probes matched nothing", name)
		}
	}
}

func TestSegmentMatchesGraph(t *testing.T) {
	for _, tc := range []struct{ n, universe int }{
		{0, 4}, {1, 4}, {7, 3}, {340, 20}, {341, 20}, {342, 20}, {3000, 40},
	} {
		t.Run(fmt.Sprintf("n=%d", tc.n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.n)*31 + 7))
			ts := randomTriples(rng, tc.n, tc.universe)
			g := oracleOf(ts)
			seg := buildSegment(t, ts, false)
			assertSegmentMatchesGraph(t, seg, g, tc.universe)
		})
	}
}

// segmentFixture is an ALXSEG02 segment file holding fixtureTriples,
// kept as written so that a format change cannot go unnoticed.
const segmentFixture = "testdata/fixture.seg"

// fixtureTriples are segmentFixture's triples: 700 draws, so every
// section spans three pages and record ranges cross page ends.
func fixtureTriples() []triple { return randomTriples(rand.New(rand.NewSource(38)), 700, 60) }

// TestSegmentFixture: encoding the fixture's triples gives the
// fixture's bytes, and the fixture opens — mapped and from the heap —
// reading as its oracle, so a store directory written by an earlier
// build still warm-starts.
func TestSegmentFixture(t *testing.T) {
	want, err := os.ReadFile(segmentFixture)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeSegment(fixtureTriples()); !bytes.Equal(got, want) {
		t.Fatalf("encoded segment (%d bytes) differs from %s (%d bytes)", len(got), segmentFixture, len(want))
	}
	or := oracleOf(fixtureTriples())
	for _, noMmap := range []bool{false, true} {
		t.Run(fmt.Sprintf("noMmap=%v", noMmap), func(t *testing.T) {
			seg, err := openSegment(nil2fs(), segmentFixture, noMmap)
			if err != nil {
				t.Fatalf("openSegment: %v", err)
			}
			defer seg.Close() //nolint:errcheck // read-only teardown
			if noMmap && seg.mapped {
				t.Fatal("segment mapped despite noMmap")
			}
			assertSegmentMatchesGraph(t, seg, or, 60)
			assertPresentPrefixes(t, seg, or)
		})
	}
}

func TestSegmentNoMmapFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ts := randomTriples(rng, 500, 16)
	g := oracleOf(ts)
	seg := buildSegment(t, ts, true)
	if seg.mapped {
		t.Fatal("expected heap-loaded segment")
	}
	assertSegmentMatchesGraph(t, seg, g, 16)
}

func TestSegmentPostingEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ts := randomTriples(rng, 800, 25)
	g := oracleOf(ts)
	seg := buildSegment(t, ts, false)
	gotS, wantS := seg.SubjectIDs(), g.SubjectIDs()
	if len(gotS) != len(wantS) {
		t.Fatalf("subjects: %d vs %d", len(gotS), len(wantS))
	}
	for i := range gotS {
		if gotS[i] != wantS[i] {
			t.Fatalf("subjects[%d]: %d vs %d", i, gotS[i], wantS[i])
		}
	}
	gotP, wantP := seg.PredicateIDs(), g.PredicateIDs()
	if fmt.Sprint(gotP) != fmt.Sprint(wantP) {
		t.Fatalf("predicates: %v vs %v", gotP, wantP)
	}
}

func TestSegmentRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ts := randomTriples(rng, 50, 8)
	dir := t.TempDir()
	if err := writeSegment(dir, "c-000001.seg", ts); err != nil {
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
	if _, err := rdf.OpenIndex(withFooter(append([]byte(nil), data...), func([]byte) {})); err != nil {
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
				binary.LittleEndian.PutUint32(f[spo(last)+4:], uint32(seg.Size()))
			})
		},
	} {
		t.Run(name, func(t *testing.T) {
			mut := mutate(append([]byte(nil), data...))
			if _, err := rdf.OpenIndex(mut); err == nil {
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
