package cluster

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestFleetWireRoundTrip is the fleet twin of TestConfigWireRoundTrip:
// every field of the fleet wire types must survive a JSON round trip,
// catching silently-dropped fields (a missing tag, an unexported field,
// a renamed key) before they lose links between shards.
func TestFleetWireRoundTrip(t *testing.T) {
	manifests := []SnapshotManifest{
		{
			ShardID: 2,
			Range:   HashRange{Lo: 0x4000000000000000, Hi: 0x8000000000000000},
			Boot:    1760000000123456789,
			Episode: 17,
			Version: 43,
			Links: []LinkWire{
				{E1: "http://ds1/a", E2: "http://ds2/b"},
				{E1: "http://ds1/x", E2: "http://ds2/y"},
			},
		},
		// Last-shard shape: Hi == 0 (top of the hash space) and an empty
		// link set must both survive.
		{ShardID: 3, Range: HashRange{Lo: 0xc000000000000000, Hi: 0}, Episode: 0, Version: 1, Links: nil},
	}
	for _, m := range manifests {
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		var back SnapshotManifest
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("manifest round trip lost fields:\n sent %+v\n got  %+v", m, back)
		}
	}
}

// The wire keys are a cross-version contract: renaming one desyncs
// mixed-version fleets even though same-version round trips still pass.
func TestFleetWireKeys(t *testing.T) {
	data, err := json.Marshal(SnapshotManifest{Links: []LinkWire{{E1: "a", E2: "b"}}})
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"shard_id", "range", "boot", "episode", "version", "links"} {
		if _, ok := raw[key]; !ok {
			t.Fatalf("manifest JSON lost key %q: %s", key, data)
		}
	}
	var links []map[string]any
	b, _ := json.Marshal(raw["links"])
	if err := json.Unmarshal(b, &links); err != nil || len(links) != 1 {
		t.Fatalf("manifest links malformed: %s", data)
	}
	if _, ok := links[0]["e1"]; !ok {
		t.Fatalf("link JSON must use lowercase e1/e2 keys (the /feedback wire convention): %s", data)
	}
}

func TestFleetRangesPartitionTheHashSpace(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 16} {
		ranges := FleetRanges(n)
		if len(ranges) != n {
			t.Fatalf("n=%d: got %d ranges", n, len(ranges))
		}
		if ranges[0].Lo != 0 {
			t.Fatalf("n=%d: first range starts at %#x", n, ranges[0].Lo)
		}
		if ranges[n-1].Hi != 0 {
			t.Fatalf("n=%d: last range must end at the top of the space, got %#x", n, ranges[n-1].Hi)
		}
		for i := 1; i < n; i++ {
			if ranges[i].Lo != ranges[i-1].Hi {
				t.Fatalf("n=%d: gap or overlap between range %d and %d: %v, %v", n, i-1, i, ranges[i-1], ranges[i])
			}
		}
		// Every hash is owned by exactly one range, and OwnerOf agrees
		// with Contains.
		rng := rand.New(rand.NewSource(int64(n)))
		probes := []uint64{0, 1, ^uint64(0), ^uint64(0) - 1}
		for i := 0; i < 200; i++ {
			probes = append(probes, rng.Uint64())
		}
		for _, r := range ranges {
			probes = append(probes, r.Lo) // boundaries are the edge cases
		}
		for _, h := range probes {
			owners := 0
			owner := -1
			for i, r := range ranges {
				if r.Contains(h) {
					owners++
					owner = i
				}
			}
			if owners != 1 {
				t.Fatalf("n=%d: hash %#x owned by %d ranges", n, h, owners)
			}
			_ = owner
		}
	}
}

func TestOwnerOfMatchesContains(t *testing.T) {
	iris := []string{
		"http://ds1.example.org/entity/1",
		"http://ds1.example.org/entity/2",
		"http://dbpedia.org/resource/Aspirin",
		"", // degenerate but must not panic
		"x",
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		iris = append(iris, "http://ds1/e"+string(rune('a'+rng.Intn(26)))+string(rune('a'+rng.Intn(26))))
	}
	for _, n := range []int{1, 2, 4, 5} {
		ranges := FleetRanges(n)
		for _, iri := range iris {
			o := OwnerOf(ranges, iri)
			if o < 0 || o >= n {
				t.Fatalf("n=%d: owner %d out of range for %q", n, o, iri)
			}
			if !ranges[o].ContainsIRI(iri) {
				t.Fatalf("n=%d: OwnerOf(%q)=%d but range %v does not contain hash %#x",
					n, iri, o, ranges[o], EntityHash(iri))
			}
		}
	}
}

// EntityHash is a wire contract: pin known values so an accidental
// algorithm change (which would re-partition every live deployment)
// fails loudly. Pins are FNV-1a + the SplitMix64 finalizer — the
// finalizer is deliberate (top-bit balance for OwnerOf), so these
// values changed exactly once, with it.
func TestEntityHashPinned(t *testing.T) {
	cases := map[string]uint64{
		"":              0xf52a15e9a9b5e89b,
		"a":             0x02c0bdbf481420f8,
		"http://ds1/a1": EntityHash("http://ds1/a1"), // self-consistency
	}
	for iri, want := range cases {
		if got := EntityHash(iri); got != want {
			t.Fatalf("EntityHash(%q) = %#x, want %#x", iri, got, want)
		}
	}
	if EntityHash("http://ds1/a1") == EntityHash("http://ds1/a2") {
		t.Fatal("distinct IRIs should hash apart")
	}
}

// Sequential IRIs (the shape every generated or scraped dataset has)
// must spread across shards. Raw FNV-1a failed this badly: its last
// multiply leaves the top bits — which OwnerOf partitions by — almost
// untouched by trailing-byte differences, so .../E0 … .../E99 all
// landed on one shard and a "fleet" degenerated to a single writer.
// The SplitMix64 finalizer restores balance; keep it honest.
func TestEntityHashSequentialIRIBalance(t *testing.T) {
	const total = 300
	for _, n := range []int{2, 3, 4} {
		ranges := FleetRanges(n)
		counts := make([]int, n)
		for i := 0; i < total; i++ {
			counts[OwnerOf(ranges, fmt.Sprintf("http://ds1.example.org/resource/E%d", i))]++
		}
		// Loose bound: every shard owns at least half its fair share.
		for id, c := range counts {
			if c < total/(2*n) {
				t.Fatalf("n=%d: shard %d owns %d of %d sequential IRIs (fair share %d): %v",
					n, id, c, total, total/n, counts)
			}
		}
	}
}
