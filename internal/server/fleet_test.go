package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"alex/internal/cluster"
	"alex/internal/core"
	"alex/internal/links"
	"alex/internal/rdf"
)

// fleetWorld splits tinyWorld across n in-process shards: one shared
// dictionary and graph pair (as identical dataset loads would produce),
// each shard's engine built only over the dataset-1 entities its hash
// range owns, peers wired up, replication ticking fast.
func fleetWorld(t *testing.T, n int) (shards []*Server, clients []*Client, dict *rdf.Dict, initial links.Set) {
	t.Helper()
	dict, sources, _, initial := tinyWorld(t)
	ranges := cluster.FleetRanges(n)
	g1 := sources[0].Graph
	g2 := sources[1].Graph

	addrs := make([]string, n)
	for id := 0; id < n; id++ {
		var e1 []rdf.ID
		for _, e := range g1.SubjectIDs() {
			if ranges[id].ContainsIRI(dict.Term(e).Value) {
				e1 = append(e1, e)
			}
		}
		var init []links.Link
		for _, l := range initial.Slice() {
			if cluster.OwnerOf(ranges, dict.Term(l.E1).Value) == id {
				init = append(init, l)
			}
		}
		sys := core.New(g1, g2, e1, g2.SubjectIDs(), init, core.DefaultConfig())
		s, err := New(sys, dict, sources, Config{
			FlushInterval: 20 * time.Millisecond,
			Fleet:         &FleetConfig{ShardID: id, Shards: n, ReplicateEvery: 25 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(func() { s.Close() })
		shards = append(shards, s)
		clients = append(clients, NewClient(ts.URL))
		addrs[id] = ts.URL
	}
	for _, s := range shards {
		if err := s.SetPeers(addrs); err != nil {
			t.Fatal(err)
		}
	}
	return shards, clients, dict, initial
}

// waitLinks polls a shard's /links until the served count reaches want.
func waitLinks(t *testing.T, c *Client, want int) *LinksResponse {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ls, err := c.Links()
		if err != nil {
			t.Fatal(err)
		}
		if ls.Count == want {
			return ls
		}
		if time.Now().After(deadline) {
			t.Fatalf("served links = %d, want %d", ls.Count, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Replication must make every shard serve the FULL link set — the
// union of all partitions — even though each engine only owns a slice.
func TestFleetReplicationServesFullReads(t *testing.T) {
	n := 2
	_, clients, _, initial := fleetWorld(t, n)
	for _, c := range clients {
		waitLinks(t, c, initial.Len())
	}

	// Reject the wrong link at its owning shard; the removal must
	// propagate so EVERY shard's served set drops it.
	ranges := cluster.FleetRanges(n)
	owner := cluster.OwnerOf(ranges, "http://ds1/a2")
	if err := clients[owner].Feedback([]LinkJSON{{E1: "http://ds1/a2", E2: "http://ds2/b2w"}}, false); err != nil {
		t.Fatal(err)
	}
	for id, c := range clients {
		ls := waitLinks(t, c, 1)
		if ls.Links[0].E1 != "http://ds1/a1" || ls.Links[0].E2 != "http://ds2/b1" {
			t.Fatalf("shard %d serves wrong surviving link: %+v", id, ls.Links)
		}
	}
}

// A shard's query path must cross links owned by OTHER shards: the
// replicated union feeds the federator, so any shard answers like a
// standalone server (the fleet router counts on this for failover).
func TestFleetShardAnswersAcrossForeignLinks(t *testing.T) {
	n := 2
	_, clients, _, initial := fleetWorld(t, n)
	ranges := cluster.FleetRanges(n)
	owner := cluster.OwnerOf(ranges, "http://ds1/a1")
	other := (owner + 1) % n
	waitLinks(t, clients[other], initial.Len())

	res, err := clients[other].Query(`SELECT ?n WHERE { <http://ds1/a1> <http://ds2/name> ?n . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Binding["n"].Value != "alpha prime" {
		t.Fatalf("non-owner shard failed to answer across the replicated link: %+v", res.Rows)
	}
	if len(res.Rows[0].Links) != 1 || res.Rows[0].Links[0].E1 != "http://ds1/a1" {
		t.Fatalf("provenance lost through replication: %+v", res.Rows[0].Links)
	}
}

// Satellite: /healthz reports shard role, owned range and episodes —
// the router's health loop and humans both read it.
func TestHealthzShardInfo(t *testing.T) {
	n := 2
	shards, clients, _, initial := fleetWorld(t, n)
	waitLinks(t, clients[0], initial.Len())

	h, err := clients[0].Healthz()
	if err != nil {
		t.Fatal(err)
	}
	if h.Role != "shard" {
		t.Fatalf("role = %q, want shard", h.Role)
	}
	if h.Shard == nil {
		t.Fatal("shard section missing")
	}
	if h.Shard.ID != 0 || h.Shard.Shards != n {
		t.Fatalf("shard identity = %d/%d, want 0/%d", h.Shard.ID, h.Shard.Shards, n)
	}
	if want := cluster.FleetRanges(n)[0]; h.Shard.Range != want {
		t.Fatalf("range = %+v, want %+v", h.Shard.Range, want)
	}
	if h.Shard.RangeText == "" {
		t.Fatal("range_text missing")
	}
	if h.Shard.OwnLinks+sumPeerLinks(h.Shard.Peers) != h.CandidateLinks {
		t.Fatalf("own (%d) + peers (%d) != served (%d)",
			h.Shard.OwnLinks, sumPeerLinks(h.Shard.Peers), h.CandidateLinks)
	}
	// After convergence every other shard shows up as a peer.
	if len(h.Shard.Peers) != n-1 {
		t.Fatalf("peers = %+v, want %d entries", h.Shard.Peers, n-1)
	}

	// The standalone server keeps the old shape: role standalone, no
	// shard section — single-node deployments see no wire change.
	dict, sources, sys, _ := tinyWorld(t)
	_, _, sc := newTestServer(t, sys, dict, sources, Config{})
	sh, err := sc.Healthz()
	if err != nil {
		t.Fatal(err)
	}
	if sh.Role != "standalone" || sh.Shard != nil {
		t.Fatalf("standalone healthz = role %q shard %+v", sh.Role, sh.Shard)
	}
	_ = shards
}

func sumPeerLinks(ps []PeerHealth) int {
	n := 0
	for _, p := range ps {
		n += p.Links
	}
	return n
}

// A shard must refuse feedback for links it does not own: accepting a
// misrouted link would explore it on the wrong engine and lose it from
// replication (which is keyed by owner).
func TestFleetFeedbackOwnershipRejected(t *testing.T) {
	n := 2
	_, clients, _, _ := fleetWorld(t, n)
	ranges := cluster.FleetRanges(n)
	owner := cluster.OwnerOf(ranges, "http://ds1/a1")
	wrong := (owner + 1) % n
	err := clients[wrong].Feedback([]LinkJSON{{E1: "http://ds1/a1", E2: "http://ds2/b1"}}, true)
	if err == nil {
		t.Fatal("misrouted feedback accepted")
	}
	// The owner accepts the same link.
	if err := clients[owner].Feedback([]LinkJSON{{E1: "http://ds1/a1", E2: "http://ds2/b1"}}, true); err != nil {
		t.Fatal(err)
	}
}

// Stale manifests (an older snapshot of the held copy's boot, or an
// older boot) must not roll a peer's replicated links back — replays and
// reordered deliveries are normal under retry. A later boot is not
// stale at any episode: a restarted shard replays its journal into
// fewer episodes than it had closed.
func TestFleetStaleManifestIgnored(t *testing.T) {
	shards, clients, dict, initial := fleetWorld(t, 2)
	waitLinks(t, clients[0], initial.Len())

	s := shards[0]
	from := 1
	s.peerMu.Lock()
	held := s.peerSets[from]
	s.peerMu.Unlock()

	for _, stale := range []cluster.SnapshotManifest{
		// An empty, older set must not erase anything.
		{ShardID: from, Boot: held.boot, Episode: held.episode - 1},
		{ShardID: from, Boot: held.boot - 1, Episode: held.episode + 100},
	} {
		applied, err := s.applyManifest(stale)
		if err != nil {
			t.Fatal(err)
		}
		if applied {
			t.Fatalf("stale manifest applied: %+v", stale)
		}
		s.peerMu.Lock()
		if s.peerSets[from].links.Len() != held.links.Len() || s.peerSets[from].episode != held.episode {
			t.Fatalf("stale manifest mutated peer state: %+v", s.peerSets[from])
		}
		s.peerMu.Unlock()
	}
	restarted := cluster.SnapshotManifest{ShardID: from, Boot: held.boot + 1, Episode: held.episode - 1}
	if applied, err := s.applyManifest(restarted); err != nil || !applied {
		t.Fatalf("a later boot's manifest at an earlier episode: applied %v, err %v; want applied", applied, err)
	}

	// Garbage manifests are refused loudly.
	if _, err := s.applyManifest(cluster.SnapshotManifest{ShardID: 99}); err == nil {
		t.Fatal("out-of-fleet manifest accepted")
	}
	if _, err := s.applyManifest(cluster.SnapshotManifest{ShardID: 0}); err == nil {
		t.Fatal("self manifest accepted")
	}
	if _, err := s.applyManifest(cluster.SnapshotManifest{
		ShardID: from, Episode: held.episode + 100,
		Links: []cluster.LinkWire{{E1: "http://nowhere/x", E2: "http://nowhere/y"}},
	}); err == nil {
		t.Fatal("manifest with unknown entities accepted")
	}
	// A link of this shard's range, said to come from the peer.
	var foreign []cluster.LinkWire
	for _, l := range initial.Slice() {
		if e1 := dict.Term(l.E1).Value; cluster.OwnerOf(cluster.FleetRanges(2), e1) != from {
			foreign = append(foreign, cluster.LinkWire{E1: e1, E2: dict.Term(l.E2).Value})
		}
	}
	if len(foreign) == 0 {
		t.Fatal("no initial link of shard 0 to forge")
	}
	if _, err := s.applyManifest(cluster.SnapshotManifest{ShardID: from, Boot: held.boot + 2, Links: foreign}); err == nil {
		t.Fatalf("manifest from shard %d carrying links it does not own accepted: %+v", from, foreign)
	}
}

// Once a fleet has converged, a round carries nothing new: a peer's
// newer manifest with unchanged links republishes nothing, so no
// shard's snapshot version moves while no feedback arrives.
func TestIdleFleetIsQuiet(t *testing.T) {
	shards, clients, _, initial := fleetWorld(t, 3)
	for _, c := range clients {
		waitLinks(t, c, initial.Len())
	}
	const round = 25 * time.Millisecond // fleetWorld's ReplicateEvery
	time.Sleep(10 * round)
	before := make([]uint64, len(shards))
	for i, s := range shards {
		before[i] = s.Snapshot().Version
	}
	time.Sleep(20 * round)
	for i, s := range shards {
		if v := s.Snapshot().Version; v != before[i] {
			t.Errorf("idle shard %d republished: version %d -> %d over 20 rounds", i, before[i], v)
		}
	}
}

// Close cancels the replication exchange in flight: a peer that
// accepts the connection and never answers does not hold shutdown for
// the exchange's timeout. The peer reads the request body before it
// hangs: Go's HTTP server notices a client that went away only once
// the body is read, so only then does r.Context() end when the shard
// gives up. A shard that never gives up then fails this test at its
// deadline instead of leaving the handler parked until the package
// times out.
func TestCloseDoesNotWaitOnAHungPeer(t *testing.T) {
	asked := make(chan struct{}, 1)
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		select {
		case asked <- struct{}{}:
		default:
		}
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer hung.Close()
	defer close(release)

	dict, sources, sys, _ := tinyWorld(t)
	s, err := New(sys, dict, sources, Config{
		Fleet: &FleetConfig{ShardID: 0, Shards: 2, ReplicateEvery: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetPeers([]string{"", hung.URL}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-asked:
	case <-time.After(5 * time.Second):
		t.Fatal("the replicator never reached the peer")
	}
	start := time.Now()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Close took %s behind a hung peer, want < 1s", elapsed)
	}
}

// A closing shard starts no replication round. Close runs with one
// exchange in flight to a hung peer and a kick queued behind it; once
// Close has cancelled the replicator, that kick must not win the select
// against ctx.Done() and push again, so the cancelled exchange is the
// only push error. The select picks at random, so the test repeats.
func TestCloseStartsNoReplicationRound(t *testing.T) {
	asked := make(chan struct{}, 1)
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		select {
		case asked <- struct{}{}:
		case <-release:
		}
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer hung.Close()
	defer close(release)

	for round := 0; round < 32; round++ {
		dict, sources, sys, _ := tinyWorld(t)
		s, err := New(sys, dict, sources, Config{
			Fleet: &FleetConfig{ShardID: 0, Shards: 2, ReplicateEvery: time.Hour},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetPeers([]string{"", hung.URL}); err != nil {
			t.Fatal(err)
		}
		select {
		case <-asked:
		case <-time.After(5 * time.Second):
			t.Fatal("the replicator never reached the peer")
		}
		s.kickReplicator()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if n := s.fleetMetrics.pushErrors.Value(); n != 1 {
			t.Fatalf("round %d: alexd_replica_push_errors_total = %d after Close, want 1 (the cancelled exchange)", round, n)
		}
	}
}

// The replica endpoints are fleet-only: a standalone server 404s them.
func TestReplicaEndpointsStandaloneDisabled(t *testing.T) {
	dict, sources, sys, _ := tinyWorld(t)
	_, ts, _ := newTestServer(t, sys, dict, sources, Config{})
	resp, err := http.Get(ts.URL + "/replica/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /replica/snapshot on standalone = %d, want 404", resp.StatusCode)
	}
}

// MaxConcurrentQueries is admission control: with every slot taken, a
// query whose deadline expires waiting gets 503 + Retry-After, not a
// pile-up.
func TestQueryAdmissionBackpressure(t *testing.T) {
	dict, sources, sys, _ := tinyWorld(t)
	s, ts, client := newTestServer(t, sys, dict, sources, Config{MaxConcurrentQueries: 1})

	// Occupy the only slot directly; the next query must time out
	// waiting for admission.
	s.querySem <- struct{}{}
	body, _ := json.Marshal(QueryRequest{
		Query:         `SELECT ?n WHERE { <http://ds1/a1> <http://ds2/name> ?n . }`,
		TimeoutMillis: 50,
	})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("admission-blocked query = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	<-s.querySem

	// With the slot free the same query succeeds.
	res, err := client.QueryContext(context.Background(), `SELECT ?n WHERE { <http://ds1/a1> <http://ds2/name> ?n . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
}

// TestFleetReadsDuringRepublication holds a fleet shard's published
// snapshots immutable the way TestConcurrentQueriesDuringFeedback does
// a standalone server's: readers ask every shard's /links, /healthz,
// /metrics and /query for the whole run while peer manifests land and
// the writer republishes, so under -race a write to a snapshot after
// its publication — in the writer's repub case above all — races with
// a read of it. A peer's manifest is pushed in by the test, from a boot
// later than the real peer's, and its link set toggles each round, so
// every round changes what the receiving shard serves. The repub-case
// plant (the live snapshot's Published set before the writer publishes)
// fails this test in every -race run.
func TestFleetReadsDuringRepublication(t *testing.T) {
	const n, rounds = 3, 40
	_, clients, dict, initial := fleetWorld(t, n)
	for _, c := range clients {
		waitLinks(t, c, initial.Len())
	}
	// An IRI of the dictionary each shard's range owns, to stand as the
	// E1 of the links its pushed manifests carry.
	ranges := cluster.FleetRanges(n)
	owned := make([]string, n)
	for id := rdf.ID(1); int(id) <= dict.Len(); id++ {
		if term := dict.Term(id); term.IsIRI() {
			if k := cluster.OwnerOf(ranges, term.Value); owned[k] == "" {
				owned[k] = term.Value
			}
		}
	}
	// Each shard receives the manifests of a peer that owns one.
	sender := make([]int, n)
	for i := range sender {
		sender[i] = -1
		for k := range owned {
			if k != i && owned[k] != "" && sender[i] < 0 {
				sender[i] = k
			}
		}
		if sender[i] < 0 {
			t.Fatalf("no peer of shard %d owns an IRI of the world", i)
		}
	}
	before := make([]uint64, n)
	for i, c := range clients {
		h, err := c.Healthz()
		if err != nil {
			t.Fatal(err)
		}
		before[i] = h.SnapshotVersion
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for _, c := range clients {
		readers.Add(1)
		go func(c *Client) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Links(); err != nil {
					t.Errorf("links: %v", err)
					return
				}
				if _, err := c.Healthz(); err != nil {
					t.Errorf("healthz: %v", err)
					return
				}
				if _, err := c.MetricsText(); err != nil {
					t.Errorf("metrics: %v", err)
					return
				}
				if _, err := c.Query(`SELECT ?n WHERE { <http://ds1/a1> <http://ds2/name> ?n . }`); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}(c)
	}

	boot := time.Now().Add(time.Hour).UnixNano()
	for r := 1; r <= rounds; r++ {
		for i, c := range clients {
			k := sender[i]
			m := cluster.SnapshotManifest{ShardID: k, Range: ranges[k], Boot: boot, Version: uint64(r), Episode: r}
			if r%2 == 1 {
				m.Links = []cluster.LinkWire{{E1: owned[k], E2: "http://ds2/b1"}}
			}
			if _, err := c.ReplicaPush(context.Background(), m); err != nil {
				t.Fatalf("round %d, push to shard %d: %v", r, i, err)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	readers.Wait()

	for i, c := range clients {
		h, err := c.Healthz()
		if err != nil {
			t.Fatal(err)
		}
		if h.SnapshotVersion < before[i]+rounds/4 {
			t.Errorf("shard %d republished %d times over %d changed manifests", i, h.SnapshotVersion-before[i], rounds)
		}
	}
}
