package store

import (
	"testing"

	"alex/internal/rdf"
)

// FuzzSegmentRoundTrip drives arbitrary triple multisets through the
// full segment cycle — sort, dedupe, write, reopen (alternating mmap
// and heap reads on the input's parity) — and requires scan and
// CountMatch identity against the oracle, a linear scan of the
// distinct input triples, for every bound-position mask: at six fixed IDs, and at every
// present triple's prefixes, so every non-empty range is checked.
func FuzzSegmentRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{1, 2, 3, 1, 2, 3, 9, 9, 9})
	seed := make([]byte, 3*400)
	for i := range seed {
		seed[i] = byte(i*7 + 3)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		ts := make([]triple, 0, len(data)/3)
		for i := 0; i+2 < len(data); i += 3 {
			ts = append(ts, triple{
				s: rdf.ID(data[i]%32 + 1),
				p: rdf.ID(data[i+1]%8 + 1),
				o: rdf.ID(data[i+2]%32 + 1),
			})
		}
		g := oracleOf(ts)
		dir := t.TempDir()
		if err := writeSegment(dir, "f-000001.seg", ts); err != nil {
			t.Fatalf("writeSegment: %v", err)
		}
		noMmap := len(data)%2 == 1
		seg, err := openSegment(nil2fs(), dir+"/f-000001.seg", noMmap)
		if err != nil {
			t.Fatalf("openSegment: %v", err)
		}
		defer seg.Close() //nolint:errcheck // read-only teardown
		if seg.Size() != g.Size() {
			t.Fatalf("count %d, oracle %d", seg.Size(), g.Size())
		}
		for mask := 0; mask < 8; mask++ {
			for _, probe := range []rdf.ID{0, 1, 5, 16, 32, 33} {
				assertProbe(t, seg, g, mask, probe, probe%9, 33-probe)
			}
		}
		assertPresentPrefixes(t, seg, g)
	})
}
