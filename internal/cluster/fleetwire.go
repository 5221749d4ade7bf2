// Package cluster is the wire contract of a sharded alexd fleet: the
// partition and snapshot vocabulary shared by
// internal/fleet, internal/server and the cmd/alexd / cmd/alexrouter
// binaries. It holds types and pure functions only — it opens no
// connection and starts no goroutine; the transport is the shards' and
// the router's HTTP+JSON. (The name predates the fleet: the package
// once also held a net/rpc coordinator/worker pair. The import path
// stayed because bench/e2e imports FleetRanges and OwnerOf from it; a
// fleet-named package waits for a PR that may touch the benchmark.)
//
// A fleet of N shards divides the 64-bit hash space into N contiguous
// ranges; a dataset-1 entity belongs to the shard whose range contains
// the FNV-1a hash of its IRI. Hashing the IRI (never the dictionary ID)
// keeps ownership stable across nodes: every shard interns terms into
// its own dictionary, so only the textual identity is comparable
// fleet-wide. The same ranges drive three decisions that must agree or
// links are silently lost:
//
//   - which entities a shard builds its ALEX partition over (cmd/alexd),
//   - which shard the router sends a feedback link to (internal/fleet),
//   - which links a shard accepts as its own (internal/server).
//
// SnapshotManifest is the replication unit: after every episode a shard
// publishes its authoritative link partition (with its provenance — the
// owning shard, the range it covers and the episode that produced it)
// so every peer can serve full reads; see internal/server's replicator.
package cluster

import (
	"fmt"
	"math/bits"
	"sort"
)

// HashRange is a contiguous, half-open range [Lo, Hi) of the 64-bit
// entity-hash space. Hi == 0 means the top of the space (2^64), so the
// last shard's range needs no special casing on the wire.
type HashRange struct {
	Lo uint64 `json:"lo"`
	Hi uint64 `json:"hi"` // exclusive; 0 = top of the hash space
}

// Contains reports whether hash h falls inside the range.
func (r HashRange) Contains(h uint64) bool {
	return h >= r.Lo && (r.Hi == 0 || h < r.Hi)
}

// ContainsIRI reports whether the entity IRI hashes into the range.
func (r HashRange) ContainsIRI(iri string) bool {
	return r.Contains(EntityHash(iri))
}

// String renders the range compactly for logs and health reports.
func (r HashRange) String() string {
	hi := r.Hi
	if hi == 0 {
		return fmt.Sprintf("[%#016x, 2^64)", r.Lo)
	}
	return fmt.Sprintf("[%#016x, %#016x)", r.Lo, hi)
}

// EntityHash maps an entity IRI to its position in the hash space:
// 64-bit FNV-1a followed by an avalanche finalizer (SplitMix64's
// mixer). The finalizer is load-bearing, not decoration — OwnerOf
// partitions the space by the TOP bits, and raw FNV-1a barely
// diffuses a trailing-byte difference upward (one multiply moves the
// last byte only into bits ~40–48), so sequential IRIs like
// .../resource/E0, E1, E2 … all share their high bits and collapse
// onto a single shard. The mixer spreads every input bit across the
// whole word, restoring the ~1/n per-range balance the fleet sizing
// assumes. The function is part of the fleet wire contract: every node
// must compute identical ownership, so it must never change while a
// deployment's journals are live.
func EntityHash(iri string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(iri); i++ {
		h ^= uint64(iri[i])
		h *= prime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// FleetRanges splits the hash space into n contiguous, disjoint,
// covering ranges — one per shard, in shard-ID order. Boundaries are
// floor(i*2^64/n), so the ranges are equal to within one hash value and
// every node derives the identical partition from n alone.
func FleetRanges(n int) []HashRange {
	if n < 1 {
		n = 1
	}
	bound := func(i int) uint64 {
		if i == 0 {
			return 0
		}
		q, _ := bits.Div64(uint64(i), 0, uint64(n)) // floor(i*2^64/n), exact for i < n
		return q
	}
	out := make([]HashRange, n)
	for i := 0; i < n; i++ {
		var hi uint64 // 0 = top of the space, for the last shard
		if i < n-1 {
			hi = bound(i + 1)
		}
		out[i] = HashRange{Lo: bound(i), Hi: hi}
	}
	return out
}

// OwnerOf returns the index of the range owning the entity IRI. ranges
// must be sorted ascending by Lo and cover the space (FleetRanges
// output qualifies).
func OwnerOf(ranges []HashRange, iri string) int {
	h := EntityHash(iri)
	// The first range with Lo > h is one past the owner.
	i := sort.Search(len(ranges), func(i int) bool { return ranges[i].Lo > h })
	if i == 0 {
		return 0 // degenerate input; FleetRanges always starts at 0
	}
	return i - 1
}

// ShardInfo identifies one shard of a fleet: its ID (index into the
// fleet's range list), its advertised address and the range it owns.
type ShardInfo struct {
	ID    int       `json:"id"`
	Addr  string    `json:"addr,omitempty"`
	Range HashRange `json:"range"`
}

// LinkWire is a link as IRI strings, the form in which links cross the
// fleet's JSON wire (SnapshotManifest).
type LinkWire struct {
	E1 string `json:"e1"`
	E2 string `json:"e2"`
}

// SnapshotManifest is a shard's published link-set snapshot: the links
// of its authoritative partition plus the provenance needed to trust
// and order it — which shard produced it, the range those links' E1
// entities hash into, and the episode (and published snapshot version)
// the set reflects. Links travel as IRI pairs, never dictionary IDs:
// the receiver interns into its own dictionary.
type SnapshotManifest struct {
	ShardID int       `json:"shard_id"`
	Range   HashRange `json:"range"`
	// Episode orders manifests from the same shard: a receiver replaces
	// its stored copy only when the incoming episode is newer.
	Episode int `json:"episode"`
	// Version is the shard's published snapshot version at manifest
	// time, for observability (episode, not version, decides staleness).
	Version uint64     `json:"version"`
	Links   []LinkWire `json:"links"`
}

// HealthPush is the POST /router/health body: a shard telling a router
// about its own health transition, so failover reacts in milliseconds
// instead of waiting out the router's poll interval. "down" is pushed
// on graceful shutdown and trusted immediately; "up" is pushed on
// startup and only triggers a verification probe (a shard cannot vouch
// for its own reachability from the router's side of the network).
type HealthPush struct {
	ShardID int    `json:"shard_id"`
	Status  string `json:"status"` // "up" or "down"
}
