// Fleet role of alexd: this file makes a Server one shard of a
// partitioned fleet (see internal/cluster's fleet wire types and
// internal/fleet's router).
//
// A shard owns the contiguous hash range cluster.FleetRanges(Shards)
// assigns to its ShardID: its engine explores only links whose E1
// entity hashes into that range, and /feedback rejects misrouted links
// outright (the router owes each link to exactly one shard — accepting
// a foreign link here would fork ownership and lose the link on the
// owner). Durability is unchanged: fsync-before-ack holds per shard,
// over the shard's own journal.
//
// Replication makes every shard able to serve a FULL read. After each
// episode the writer publishes a fresh snapshot and kicks the
// replicator, which pushes the shard's own link partition — a
// cluster.SnapshotManifest carrying the episode that produced it — to
// every peer, and pulls the peers' manifests back (the pull doubles as
// catch-up after a restart and as anti-entropy on a timer). A received
// manifest replaces the stored copy only when its episode is newer, so
// replays and reordered deliveries cannot roll a peer's links back.
// The served snapshot is the union of the shard's own candidates and
// the newest manifest from every peer; queries and /links never
// distinguish a shard from a standalone server.
//
// The replicator is the shard's only long-lived goroutine beside the
// writer. It follows the same lifecycle discipline (defer close of its done
// channel, select on stop/die), and it never touches the engine: it
// reads published snapshots and the peer table, so the single-writer
// invariant stands. When a manifest is applied outside an episode
// boundary the writer is asked — via the repub channel — to republish,
// keeping publication itself writer-only.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"alex/internal/cluster"
	"alex/internal/links"
	"alex/internal/rdf"
)

// FleetConfig makes the server one shard of a fleet.
type FleetConfig struct {
	// ShardID is this shard's index into cluster.FleetRanges(Shards).
	ShardID int
	// Shards is the fleet size.
	Shards int
	// ReplicateEvery is the anti-entropy interval: how often the
	// replicator pushes/pulls snapshots absent episode activity.
	// 0 means 2s.
	ReplicateEvery time.Duration
	// Routers lists router addresses to push health transitions to
	// (POST /router/health on startup and graceful shutdown), so
	// failover reacts in milliseconds instead of a poll interval.
	// Best-effort: an unreachable router just waits for its next poll.
	Routers []string
}

const defaultReplicateEvery = 2 * time.Second

// replicaRPCTimeout bounds one push or pull to a single peer, so a hung
// peer cannot stall the whole replication round past the next tick.
const replicaRPCTimeout = 5 * time.Second

func (fc *FleetConfig) validate() error {
	if fc.Shards < 1 {
		return fmt.Errorf("server: fleet needs at least 1 shard, got %d", fc.Shards)
	}
	if fc.ShardID < 0 || fc.ShardID >= fc.Shards {
		return fmt.Errorf("server: shard ID %d out of range for %d shards", fc.ShardID, fc.Shards)
	}
	return nil
}

// peerState is the newest manifest accepted from one peer, with its
// links resolved into this shard's dictionary. The set is frozen at
// acceptance; publish unions it into served snapshots without copying.
type peerState struct {
	episode int
	version uint64
	links   links.Set
}

// initFleet wires the fleet role into a freshly constructed server (New
// only, before the writer and replicator goroutines start).
func (s *Server) initFleet(fc *FleetConfig) error {
	if err := fc.validate(); err != nil {
		return err
	}
	c := *fc
	if c.ReplicateEvery <= 0 {
		c.ReplicateEvery = defaultReplicateEvery
	}
	s.fleet = &c
	s.ranges = cluster.FleetRanges(c.Shards)
	s.peerSets = make(map[int]peerState)
	s.peerClients = make(map[int]*Client)
	s.kick = make(chan struct{}, 1)
	s.repub = make(chan struct{}, 1)
	s.repDone = make(chan struct{})
	s.registerFleetMetrics()
	return nil
}

func (s *Server) registerFleetMetrics() {
	m := &s.fleetMetrics
	m.pushes = s.reg.Counter("alexd_replica_pushes_total", "Snapshot manifests pushed to peers.")
	m.pushErrors = s.reg.Counter("alexd_replica_push_errors_total", "Manifest pushes that failed.")
	m.pulls = s.reg.Counter("alexd_replica_pulls_total", "Snapshot manifests pulled from peers.")
	m.pullErrors = s.reg.Counter("alexd_replica_pull_errors_total", "Manifest pulls that failed.")
	m.applied = s.reg.Counter("alexd_replica_applied_total", "Peer manifests accepted (newer episode than the stored copy).")
	m.rejected = s.reg.Counter("alexd_replica_rejected_total", "Peer manifests refused (bad shard, unknown entity).")
	s.reg.GaugeFunc("alexd_shard_id", "This shard's ID within the fleet.", func() float64 {
		return float64(s.fleet.ShardID)
	})
	s.reg.GaugeFunc("alexd_shard_own_links", "Candidate links of this shard's own partition.", func() float64 {
		return float64(s.Snapshot().Own.Len())
	})
	for id := 0; id < s.fleet.Shards; id++ {
		if id == s.fleet.ShardID {
			continue
		}
		id := id
		s.reg.LabeledGaugeFunc("alexd_peer_episode",
			fmt.Sprintf("peer=\"%d\"", id),
			"Episode of the newest manifest accepted from each peer.",
			func() float64 {
				s.peerMu.Lock()
				defer s.peerMu.Unlock()
				return float64(s.peerSets[id].episode)
			})
	}
}

type fleetMetrics struct {
	pushes     *Counter
	pushErrors *Counter
	pulls      *Counter
	pullErrors *Counter
	applied    *Counter
	rejected   *Counter
}

// SetPeers installs the peer address list, indexed by shard ID (the
// entry at this shard's own ID is ignored; empty entries disable that
// peer). It may be called at any time — test fleets only learn their
// URLs after binding — and kicks an immediate replication round so a
// freshly (re)started shard catches up without waiting for the timer.
func (s *Server) SetPeers(addrs []string) error {
	if s.fleet == nil {
		return fmt.Errorf("server: not a fleet shard")
	}
	if len(addrs) != s.fleet.Shards {
		return fmt.Errorf("server: got %d peer addresses for %d shards", len(addrs), s.fleet.Shards)
	}
	clients := make(map[int]*Client)
	for id, addr := range addrs {
		if id == s.fleet.ShardID || addr == "" {
			continue
		}
		clients[id] = NewClient(addr)
	}
	s.peerMu.Lock()
	s.peerClients = clients
	s.peerMu.Unlock()
	s.kickReplicator()
	return nil
}

// healthPushTimeout bounds one router health notification; the push is
// an optimization over polling, never worth stalling startup/shutdown.
const healthPushTimeout = 500 * time.Millisecond

// notifyRouters pushes a health transition ("up" or "down") to every
// configured router. Best-effort and synchronous: failures are dropped
// (the router's poll loop remains the source of truth) and the short
// per-router timeout bounds the total cost.
func (s *Server) notifyRouters(status string) {
	if s.fleet == nil || len(s.fleet.Routers) == 0 {
		return
	}
	body, err := json.Marshal(cluster.HealthPush{ShardID: s.fleet.ShardID, Status: status})
	if err != nil {
		return
	}
	for _, addr := range s.fleet.Routers {
		base := addr
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		ctx, cancel := context.WithTimeout(context.Background(), healthPushTimeout)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			strings.TrimRight(base, "/")+"/router/health", bytes.NewReader(body))
		if err != nil {
			cancel()
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close() // response body fully drained; nothing useful in the error
		}
		cancel()
	}
}

// kickReplicator asks the replicator for an immediate round; a pending
// kick coalesces.
func (s *Server) kickReplicator() {
	if s.fleet == nil {
		return
	}
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// replicator is the fleet's second long-lived goroutine: on every kick
// (episode published, peers changed) and every ReplicateEvery tick it
// pushes this shard's manifest to all peers and pulls theirs back.
func (s *Server) replicator() {
	defer close(s.repDone)
	tick := time.NewTicker(s.fleet.ReplicateEvery)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-s.die:
			return // simulated crash, same as the writer
		case <-s.kick:
			s.replicate()
		case <-tick.C:
			s.replicate()
		}
	}
}

// replicate runs one push+pull round against every configured peer.
func (s *Server) replicate() {
	s.peerMu.Lock()
	clients := make(map[int]*Client, len(s.peerClients))
	for id, c := range s.peerClients {
		clients[id] = c
	}
	s.peerMu.Unlock()
	if len(clients) == 0 {
		return
	}
	own := s.Manifest()
	for id, c := range clients {
		ctx, cancel := context.WithTimeout(context.Background(), replicaRPCTimeout)
		if _, err := c.ReplicaPush(ctx, own); err != nil {
			s.fleetMetrics.pushErrors.Inc()
		} else {
			s.fleetMetrics.pushes.Inc()
		}
		m, err := c.ReplicaSnapshot(ctx)
		cancel()
		if err != nil {
			s.fleetMetrics.pullErrors.Inc()
			continue
		}
		s.fleetMetrics.pulls.Inc()
		if m.ShardID != id {
			s.fleetMetrics.rejected.Inc()
			continue // address list and fleet topology disagree
		}
		s.applyManifest(*m) //nolint:errcheck // counted inside; a bad peer manifest must not stop the round
	}
}

// Manifest renders the shard's own link partition for the replication
// wire, from the published snapshot (never from the engine — the
// replicator and HTTP handlers must not touch it).
func (s *Server) Manifest() cluster.SnapshotManifest {
	snap := s.Snapshot()
	m := cluster.SnapshotManifest{
		ShardID: s.fleet.ShardID,
		Range:   s.ranges[s.fleet.ShardID],
		Episode: snap.Episode,
		Version: snap.Version,
	}
	for _, l := range snap.Own.Slice() {
		m.Links = append(m.Links, cluster.LinkWire{
			E1: s.dict.Term(l.E1).Value,
			E2: s.dict.Term(l.E2).Value,
		})
	}
	return m
}

// applyManifest accepts a peer's manifest: resolve its links into this
// shard's dictionary and store it if it is newer than the held copy.
// Returns whether the manifest replaced the stored one. An unknown
// entity rejects the whole manifest — shards load identical datasets,
// so a miss means the fleet is misconfigured and silently dropping the
// link would be worse than refusing loudly.
func (s *Server) applyManifest(m cluster.SnapshotManifest) (bool, error) {
	if s.fleet == nil {
		return false, fmt.Errorf("server: not a fleet shard")
	}
	if m.ShardID < 0 || m.ShardID >= s.fleet.Shards {
		s.fleetMetrics.rejected.Inc()
		return false, fmt.Errorf("server: manifest from shard %d, fleet has %d", m.ShardID, s.fleet.Shards)
	}
	if m.ShardID == s.fleet.ShardID {
		s.fleetMetrics.rejected.Inc()
		return false, fmt.Errorf("server: manifest claims to be from this shard (%d)", m.ShardID)
	}
	set := links.NewSet()
	for _, lw := range m.Links {
		e1, ok := s.dict.Lookup(rdf.IRI(lw.E1))
		if !ok {
			s.fleetMetrics.rejected.Inc()
			return false, fmt.Errorf("server: manifest from shard %d names unknown entity %q (were the datasets loaded identically?)", m.ShardID, lw.E1)
		}
		e2, ok := s.dict.Lookup(rdf.IRI(lw.E2))
		if !ok {
			s.fleetMetrics.rejected.Inc()
			return false, fmt.Errorf("server: manifest from shard %d names unknown entity %q (were the datasets loaded identically?)", m.ShardID, lw.E2)
		}
		set.Add(links.Link{E1: e1, E2: e2})
	}
	s.peerMu.Lock()
	held, ok := s.peerSets[m.ShardID]
	newer := !ok || m.Episode > held.episode ||
		(m.Episode == held.episode && m.Version > held.version)
	if newer {
		s.peerSets[m.ShardID] = peerState{episode: m.Episode, version: m.Version, links: set}
	}
	s.peerMu.Unlock()
	if !newer {
		return false, nil
	}
	s.fleetMetrics.applied.Inc()
	// Publication is writer-only; ask it to fold the new peer links into
	// a fresh snapshot. A pending request coalesces.
	select {
	case s.repub <- struct{}{}:
	default:
	}
	return true, nil
}

// peerUnion folds the newest accepted peer manifests into own,
// returning the full served link set (own itself when there are no
// peers, so standalone publication pays nothing).
func (s *Server) peerUnion(own links.Set) links.Set {
	if s.fleet == nil {
		return own
	}
	s.peerMu.Lock()
	defer s.peerMu.Unlock()
	if len(s.peerSets) == 0 {
		return own
	}
	full := own.Clone()
	for _, ps := range s.peerSets {
		for l := range ps.links {
			full.Add(l)
		}
	}
	return full
}

// peerHealth reports the newest accepted manifest per peer, for
// /healthz. Sorted by shard ID.
func (s *Server) peerHealth() []PeerHealth {
	s.peerMu.Lock()
	defer s.peerMu.Unlock()
	out := make([]PeerHealth, 0, len(s.peerSets))
	for id := 0; id < s.fleet.Shards; id++ {
		ps, ok := s.peerSets[id]
		if !ok {
			continue
		}
		out = append(out, PeerHealth{ShardID: id, Episode: ps.episode, Links: ps.links.Len()})
	}
	return out
}

// replicaPushResponse acknowledges a pushed manifest.
type replicaPushResponse struct {
	// Applied is false when the manifest was valid but stale (the
	// receiver already holds a newer episode from that shard).
	Applied bool `json:"applied"`
}

// handleReplicaSnapshot serves this shard's own link partition (GET
// /replica/snapshot) for peers catching up by pull.
func (s *Server) handleReplicaSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET required"})
		return
	}
	if s.fleet == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "not a fleet shard"})
		return
	}
	writeJSON(w, http.StatusOK, s.Manifest())
}

// handleReplicaPush accepts a peer's manifest (POST /replica/push).
func (s *Server) handleReplicaPush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return
	}
	if s.fleet == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "not a fleet shard"})
		return
	}
	var m cluster.SnapshotManifest
	if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	applied, err := s.applyManifest(m)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, replicaPushResponse{Applied: applied})
}
