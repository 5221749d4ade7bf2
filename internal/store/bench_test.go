package store

import (
	"bytes"
	"sort"
	"testing"

	"alex/internal/rdf"
	"alex/internal/synth"
)

// benchDataset generates the largest synth profile pair once per
// process (Figure 8's dbpedia-opencyc) — the acceptance scale for the
// segment-store numbers.
var benchDS *synth.Dataset

func benchDataset(b *testing.B) *synth.Dataset {
	b.Helper()
	if benchDS == nil {
		prof, ok := synth.ProfileByName("dbpedia-opencyc")
		if !ok {
			b.Fatal("missing dbpedia-opencyc profile")
		}
		if testing.Short() {
			prof = prof.Scale(0.1)
		}
		benchDS = synth.Generate(prof)
	}
	return benchDS
}

// buildBenchSet persists the dataset pair into dir and returns the
// committed set.
func buildBenchSet(b *testing.B, dir string) *Set {
	b.Helper()
	ds := benchDataset(b)
	// A private dictionary per set: benchmarks must not grow each
	// other's dict (cold-start cost includes loading it).
	set, err := Create(dir, nil, Options{})
	if err != nil {
		b.Fatal(err)
	}
	dict := set.Dict()
	for name, g := range map[string]*rdf.Graph{"ds1": ds.G1, "ds2": ds.G2} {
		src, err := set.AddSource(name)
		if err != nil {
			b.Fatal(err)
		}
		g.ForEachMatchIDs(0, 0, 0, false, false, false, func(s, p, o rdf.ID) bool {
			src.InsertIDs(dict.Intern(ds.Dict.Term(s)), dict.Intern(ds.Dict.Term(p)), dict.Intern(ds.Dict.Term(o)))
			return true
		})
	}
	if err := set.Compact(); err != nil {
		b.Fatal(err)
	}
	return set
}

// BenchmarkSegmentStore measures the lifecycle phases the disk backend
// exists for, at the largest synth profile:
//
//   - build: sort + write + fsync of the whole store from scratch;
//   - scan: a full wildcard scan of an mmap'd segment (the query
//     path's worst case);
//   - coldstart/mmap: Open on a committed directory (footers + dict);
//   - coldstart/parse: re-parsing the same triples from N-Triples text
//     into a fresh rdf.Graph and building its index, the in-memory
//     cold start;
//   - point/{mem,disk}: one S+P-bound ForEachMatchIDs per op, cycling
//     over every (s,p) of ds1 — the probe a bind join makes per row;
//   - count/{mem,disk}: one P+O-bound CountMatch per op, cycling over
//     every (p,o) of ds1 — the planner's statistic;
//   - miss/{mem,disk}: one S+P-bound ForEachMatchIDs on ds1 per op
//     whose subject is a ds2 entity, cycling over ds2's subjects and
//     ds1's predicates — the probe a cross-source bind join makes
//     under a row's own ID, which ds1 cannot hold.
//
// mem is ds1 as an rdf.Graph, whose index image is on the heap; disk
// is the same image as the mmap'd segment of a committed store. Both
// run the one rdf.Index search, so they differ in residency only.
func BenchmarkSegmentStore(b *testing.B) {
	ds := benchDataset(b)
	total := ds.G1.Size() + ds.G2.Size()

	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dir := b.TempDir()
			set := buildBenchSet(b, dir)
			if err := set.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(total), "triples")
	})

	b.Run("scan", func(b *testing.B) {
		dir := b.TempDir()
		set := buildBenchSet(b, dir)
		defer set.Close() //nolint:errcheck // read-only teardown
		src := set.Source("ds1")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := 0
			src.ForEachMatchIDs(0, 0, 0, false, false, false, func(s, p, o rdf.ID) bool {
				n++
				return true
			})
			if n != ds.G1.Size() {
				b.Fatalf("scan saw %d triples, want %d", n, ds.G1.Size())
			}
		}
	})

	b.Run("coldstart/mmap", func(b *testing.B) {
		dir := b.TempDir()
		set := buildBenchSet(b, dir)
		if err := set.Close(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			re, err := Open(dir, Options{})
			if err != nil {
				b.Fatal(err)
			}
			if re.Source("ds1").Size() != ds.G1.Size() {
				b.Fatal("cold start lost triples")
			}
			b.StopTimer()
			if err := re.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})

	b.Run("coldstart/parse", func(b *testing.B) {
		var buf bytes.Buffer
		if err := rdf.WriteNTriples(&buf, ds.G1); err != nil {
			b.Fatal(err)
		}
		if err := rdf.WriteNTriples(&buf, ds.G2); err != nil {
			b.Fatal(err)
		}
		text := buf.Bytes()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g := rdf.NewGraph()
			if _, err := rdf.ReadNTriples(bytes.NewReader(text), g); err != nil {
				b.Fatal(err)
			}
			if g.Size() != total {
				b.Fatalf("parse saw %d triples, want %d", g.Size(), total)
			}
		}
	})

	b.Run("point", func(b *testing.B) {
		benchBackends(b, func(b *testing.B, ts, _ TripleStore) {
			pairs := distinctPairs(ts, func(s, p, _ rdf.ID) [2]rdf.ID { return [2]rdf.ID{s, p} })
			n := 0
			fn := func(_, _, _ rdf.ID) bool { n++; return true }
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := pairs[i%len(pairs)]
				ts.ForEachMatchIDs(k[0], k[1], 0, true, true, false, fn)
			}
			if n < b.N {
				b.Fatalf("%d probes of present pairs matched %d triples", b.N, n)
			}
		})
	})

	b.Run("count", func(b *testing.B) {
		benchBackends(b, func(b *testing.B, ts, _ TripleStore) {
			pairs := distinctPairs(ts, func(_, p, o rdf.ID) [2]rdf.ID { return [2]rdf.ID{p, o} })
			n := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := pairs[i%len(pairs)]
				n += ts.CountMatch(0, k[0], k[1], false, true, true)
			}
			if n < b.N {
				b.Fatalf("%d counts of present pairs summed to %d", b.N, n)
			}
		})
	})

	b.Run("miss", func(b *testing.B) {
		benchBackends(b, func(b *testing.B, ts, other TripleStore) {
			subjects, preds := other.SubjectIDs(), ts.PredicateIDs()
			n := 0
			fn := func(_, _, _ rdf.ID) bool { n++; return true }
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ts.ForEachMatchIDs(subjects[i%len(subjects)], preds[i%len(preds)], 0, true, true, false, fn)
			}
			if n != 0 {
				b.Fatalf("%d probes of ds2 subjects matched %d ds1 triples", b.N, n)
			}
		})
	})
}

// benchBackends runs fn on ds1 and ds2 as rdf.Graphs, their indexes on
// the heap ("mem"), and as the mmap'd segments of a committed store
// ("disk").
func benchBackends(b *testing.B, fn func(b *testing.B, ds1, ds2 TripleStore)) {
	b.Run("mem", func(b *testing.B) { fn(b, benchDataset(b).G1, benchDataset(b).G2) })
	b.Run("disk", func(b *testing.B) {
		set := buildBenchSet(b, b.TempDir())
		defer set.Close() //nolint:errcheck // read-only teardown
		fn(b, set.Source("ds1"), set.Source("ds2"))
	})
}

// distinctPairs returns the distinct key(s, p, o) over ts's triples in
// ascending order, so both backends probe in ID order.
func distinctPairs(ts TripleStore, key func(s, p, o rdf.ID) [2]rdf.ID) [][2]rdf.ID {
	seen := map[[2]rdf.ID]bool{}
	var out [][2]rdf.ID
	ts.ForEachMatchIDs(0, 0, 0, false, false, false, func(s, p, o rdf.ID) bool {
		if k := key(s, p, o); !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		return out[i][0] < out[j][0] || out[i][0] == out[j][0] && out[i][1] < out[j][1]
	})
	return out
}
