package fleet

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"alex/internal/cluster"
	"alex/internal/core"
	"alex/internal/faultnet"
	"alex/internal/federation"
	"alex/internal/links"
	"alex/internal/rdf"
	"alex/internal/server"
)

// splitWorld builds eight dataset-1 entities whose names are chosen so
// a two-shard split puts four on each shard (tinyWorld's a0..a5 all
// hash to one shard at n=2, which would make every cross-shard batch
// degenerate). All eight initial links are crossed within their owner
// group, so rejecting them is a pure removal — no exploration noise —
// and a batch pairing one link from each group always spans owners.
func splitWorld(t testing.TB) *world {
	t.Helper()
	dict := rdf.NewDict()
	g1 := rdf.NewGraphWithDict(dict)
	g2 := rdf.NewGraphWithDict(dict)
	label := rdf.IRI("http://ds1/label")
	name := rdf.IRI("http://ds2/name")
	nums := []int{1, 2, 3, 4, 10, 11, 12, 13}
	var queries []string
	for _, i := range nums {
		a := rdf.IRI(fmt.Sprintf("http://ds1/a%d", i))
		b := rdf.IRI(fmt.Sprintf("http://ds2/b%d", i))
		g1.Insert(rdf.Triple{S: a, P: label, O: rdf.Literal(fmt.Sprintf("thing %d", i))})
		g2.Insert(rdf.Triple{S: b, P: name, O: rdf.Literal(fmt.Sprintf("thing %d prime", i))})
		queries = append(queries,
			fmt.Sprintf("SELECT ?n WHERE { <%s> <%s> ?n . }", a.Value, name.Value),
			fmt.Sprintf("ASK { <%s> <%s> ?n . }", a.Value, name.Value),
		)
	}
	id := func(term rdf.Term) rdf.ID {
		i, ok := dict.Lookup(term)
		if !ok {
			t.Fatalf("unknown term %v", term)
		}
		return i
	}
	// Cross pairs within each owner group: (1,2)(3,4) and (10,11)(12,13).
	var initial []links.Link
	for _, p := range [][2]int{{1, 2}, {3, 4}, {10, 11}, {12, 13}} {
		for k := 0; k < 2; k++ {
			initial = append(initial, links.Link{
				E1: id(rdf.IRI(fmt.Sprintf("http://ds1/a%d", p[k]))),
				E2: id(rdf.IRI(fmt.Sprintf("http://ds2/b%d", p[1-k]))),
			})
		}
	}
	ranges := cluster.FleetRanges(2)
	if cluster.OwnerOf(ranges, "http://ds1/a1") == cluster.OwnerOf(ranges, "http://ds1/a10") {
		t.Fatal("splitWorld invariant broken: a1 and a10 hash to the same 2-shard owner")
	}
	return &world{
		dict: dict, g1: g1, g2: g2,
		sources: []federation.Source{{Name: "ds1", Graph: g1}, {Name: "ds2", Graph: g2}},
		e1:      g1.SubjectIDs(), e2: g2.SubjectIDs(),
		initial: initial,
		queries: queries,
	}
}

// Satellite: with every shard down the router must fail a query fast —
// an immediate 503 naming the unroutable shards, not a scatter that
// waits out the query timeout against dead sockets.
func TestRouterAllShardsDownFastFail(t *testing.T) {
	w := tinyWorld(t)
	f := startFleet(t, w, 2, server.Config{})
	f.waitConverged(t, len(w.initial))

	for i := range f.shards {
		f.https[i].Close()
		f.shards[i].Abort()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		h, err := f.router.healthView()
		if err == nil && h.Routable == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never marked the whole fleet down: %+v", h)
		}
		time.Sleep(10 * time.Millisecond)
	}

	start := time.Now()
	resp, err := http.Post(f.rts.URL+"/query", "application/json",
		strings.NewReader(`{"query":"SELECT ?n WHERE { <http://ds1/a0> <http://ds2/name> ?n . }"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Errorf("close response body: %v", err)
		}
	}()
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("all-down query took %s; must fail fast, not wait out a timeout", elapsed)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-down query status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Alex-Fleet-Degraded"); got != "shard-0,shard-1" {
		t.Fatalf("X-Alex-Fleet-Degraded = %q, want %q", got, "shard-0,shard-1")
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("all-down 503 missing Retry-After")
	}
}

// Hedging is the read failover: when the shard a query was routed to
// answers 5xx, refuses the connection or hangs past the hedge delay, the
// peer is asked and ITS bytes are relayed — a plain 200, with no
// X-Alex-Fleet-Degraded, because one replica's answer is the full
// answer. The router is configured as alexrouter configures it (no
// retry policy of its own) with a 1 s hedge delay: a shard is asked
// once, so a 5xx or a refused connection fails over at once, not after
// retries or the delay. The health interval is an hour, so the first
// query of each fleet goes to shard 0 and only the data path changes
// what is routable.
func TestRouterFailsOverOn5xxAndTransportError(t *testing.T) {
	cases := []struct {
		name  string
		fault faultnet.Faults
		// down: the failure marks shard 0 unroutable (a hang does not:
		// the hedge answers first and the slow request is cancelled).
		down bool
		// within bounds the failover.
		within time.Duration
	}{
		{"5xx", faultnet.Faults{ErrProb: 1}, true, 250 * time.Millisecond},
		{"refused", faultnet.Faults{Partition: true}, true, 250 * time.Millisecond},
		{"hangs", faultnet.Faults{Latency: 5 * time.Second}, false, 2 * time.Second},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			w := tinyWorld(t)
			tp := &tap{} // behind the faults: it sees what a shard really answered
			tr := faultnet.New(7, tp)
			f := startFleetWith(t, w, 2, server.Config{}, func(c *Config) {
				c.HealthInterval = time.Hour
				c.Transport = tr
				c.Retry = nil // as alexrouter and bench/e2e build it
				c.Hedge = HedgeConfig{Delay: time.Second}
			})
			f.waitConverged(t, len(w.initial))
			hosts := []string{strings.TrimPrefix(f.addrs[0], "http://"), strings.TrimPrefix(f.addrs[1], "http://")}
			tr.SetFaults(hosts[0], tc.fault)

			body := queryBody(t, server.QueryRequest{Query: w.queries[0]})
			start := time.Now()
			status, hdr, got := postQuery(t, f.rts.URL, body)
			seen := tp.take()
			if len(seen) != 1 || seen[0].host != hosts[1] {
				t.Fatalf("shards that answered: %+v, want the peer alone", seen)
			}
			if status != http.StatusOK || !bytes.Equal(got, seen[0].resp) {
				t.Fatalf("router answered %d %s, the peer answered %s", status, got, seen[0].resp)
			}
			if elapsed := time.Since(start); elapsed > tc.within {
				t.Fatalf("failover took %s, want at most %s", elapsed, tc.within)
			}
			if d := hdr.Get("X-Alex-Fleet-Degraded"); d != "" {
				t.Fatalf("a failed-over 200 carries X-Alex-Fleet-Degraded: %s", d)
			}
			if tr.Requests(hosts[0], "/query") != 1 || tr.Requests(hosts[1], "/query") != 1 {
				t.Fatalf("upstream /query attempts %v, want one on each shard", tr.Stats())
			}
			m := &f.router.metrics
			if m.hedges.Value() != 1 || m.hedgeWins.Value() != 1 || m.queryFanouts.Sum() != 2 {
				t.Fatalf("hedges %d, hedge wins %d, shards asked %v; want 1, 1, 2",
					m.hedges.Value(), m.hedgeWins.Value(), m.queryFanouts.Sum())
			}
			h, err := f.router.healthView()
			if err != nil {
				t.Fatal(err)
			}
			if h.Shards[0].Routable == tc.down || !h.Shards[1].Routable {
				t.Fatalf("routable after the failover: %+v", h.Shards)
			}
			if !tc.down {
				return
			}

			// The peer fails the same way: nothing is left to ask, and the
			// refusal names the whole fleet.
			tr.SetFaults(hosts[1], tc.fault)
			if status, _, got := postQuery(t, f.rts.URL, body); status != http.StatusBadGateway {
				t.Fatalf("query with every shard failing got %d %s, want 502", status, got)
			}
			status, hdr, _ = postQuery(t, f.rts.URL, body)
			if status != http.StatusServiceUnavailable || hdr.Get("X-Alex-Fleet-Degraded") != "shard-0,shard-1" {
				t.Fatalf("all-down query got %d, X-Alex-Fleet-Degraded %q; want 503 naming both shards",
					status, hdr.Get("X-Alex-Fleet-Degraded"))
			}
			if got := m.fleetDegraded.Value(); got != 1 {
				t.Fatalf("alexrouter_fleet_degraded_total = %d, want 1", got)
			}
		})
	}
}

// queryFrames are the router's per-query stack frames: the handler, the
// primary's request and the hedge's, whichever goroutine runs them.
var queryFrames = []string{
	"alex/internal/fleet.(*Router).handleQuery",
	"alex/internal/fleet.(*Router).subQuery",
	"alex/internal/fleet.(*Router).ask",
	"alex/internal/fleet.(*routedQuery)",
}

// A hedged query leaves nothing running once it is answered, in either
// order: when the peer wins, the hung primary's request is cancelled;
// when the slow primary beats a slower peer, the peer's is. The metrics
// count what happened: one hedge each time, a win only for the peer.
func TestHedgedQueryStopsTheLoser(t *testing.T) {
	for _, tc := range []struct {
		name          string
		primary, peer time.Duration // latency each shard is given
		peerWins      bool
	}{
		{"primary hangs, peer wins", 5 * time.Second, 0, true},
		{"slow primary beats a slower peer", 100 * time.Millisecond, 5 * time.Second, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := tinyWorld(t)
			tp := &tap{}
			tr := faultnet.New(3, tp)
			f := startFleetWith(t, w, 2, server.Config{}, func(c *Config) {
				c.HealthInterval = time.Hour // the first query goes to shard 0
				c.Transport = tr
				c.Hedge = HedgeConfig{Delay: 20 * time.Millisecond}
			})
			f.waitConverged(t, len(w.initial))
			hosts := []string{strings.TrimPrefix(f.addrs[0], "http://"), strings.TrimPrefix(f.addrs[1], "http://")}
			tr.SetFaults(hosts[0], faultnet.Faults{Latency: tc.primary})
			tr.SetFaults(hosts[1], faultnet.Faults{Latency: tc.peer})

			start := time.Now()
			status, _, got := postQuery(t, f.rts.URL, queryBody(t, server.QueryRequest{Query: w.queries[0]}))
			elapsed := time.Since(start)
			winner := hosts[0]
			if tc.peerWins {
				winner = hosts[1]
			}
			seen := tp.take()
			if status != http.StatusOK || len(seen) != 1 || seen[0].host != winner || !bytes.Equal(got, seen[0].resp) {
				t.Fatalf("router answered %d %s; shards that answered: %+v; want %s's answer", status, got, seen, winner)
			}
			if elapsed > time.Second {
				t.Fatalf("answered after %s: the loser was waited for", elapsed)
			}

			deadline := time.Now().Add(500 * time.Millisecond)
			for {
				var stacks bytes.Buffer
				if err := pprof.Lookup("goroutine").WriteTo(&stacks, 2); err != nil {
					t.Fatal(err)
				}
				held := ""
				for _, frame := range queryFrames {
					if strings.Contains(stacks.String(), frame) {
						held = frame
						break
					}
				}
				if held == "" {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("500ms after the answer a goroutine still holds %s:\n%s", held, stacks.String())
				}
				time.Sleep(10 * time.Millisecond)
			}

			m := &f.router.metrics
			wantWins := uint64(0)
			if tc.peerWins {
				wantWins = 1
			}
			if m.hedges.Value() != 1 || m.hedgeWins.Value() != wantWins || m.queryFanouts.Sum() != 2 {
				t.Fatalf("hedges %d, hedge wins %d, shards asked %v; want 1, %d, 2",
					m.hedges.Value(), m.hedgeWins.Value(), m.queryFanouts.Sum(), wantWins)
			}
			if h, err := f.router.healthView(); err != nil || h.Routable != 2 {
				t.Fatalf("a slow shard was marked down: %+v (err %v)", h, err)
			}
		})
	}
}

// Satellite: Router.Close during an in-flight health probe must cancel
// the probe and leave no goroutines behind — it cannot wait out the
// probe timeout, and the poll loop cannot outlive Close.
func TestRouterCloseDuringInflightPollNoLeak(t *testing.T) {
	// A listener that accepts and then says nothing: every probe hangs
	// until its context dies.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var conns []net.Conn
	connCh := make(chan net.Conn)
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			connCh <- c
		}
	}()
	collectDone := make(chan struct{})
	go func() {
		defer close(collectDone)
		for c := range connCh {
			conns = append(conns, c)
		}
	}()
	defer func() {
		if err := ln.Close(); err != nil {
			t.Errorf("close listener: %v", err)
		}
		<-acceptDone
		close(connCh)
		<-collectDone
		for _, c := range conns {
			_ = c.Close() // hung test conns; nothing to report
		}
	}()

	before := runtime.NumGoroutine()
	r, err := New(Config{
		Shards:             []string{"http://" + ln.Addr().String()},
		HealthInterval:     20 * time.Millisecond,
		HealthProbeTimeout: 500 * time.Millisecond,
		Breaker:            federation.BreakerConfig{Failures: 1000},
		Retry:              &server.RetryPolicy{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Let the poll loop start a probe, then close mid-flight.
	time.Sleep(60 * time.Millisecond)
	start := time.Now()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Fatalf("Close took %s; must cancel the in-flight probe, not wait it out", elapsed)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked after Close: before=%d after=%d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// pushHealth posts one shard health transition to the router and
// returns the HTTP status.
func pushHealth(t testing.TB, routerURL string, shardID int, status string) int {
	t.Helper()
	body := fmt.Sprintf(`{"shard_id":%d,"status":%q}`, shardID, status)
	resp, err := http.Post(routerURL+"/router/health", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatalf("close response body: %v", err)
	}
	return resp.StatusCode
}

// Tentpole: shard-pushed health transitions. "down" is trusted and
// immediate; "up" only triggers a verification probe, so a push for a
// live shard restores it instantly while a spoofed push for a dead
// shard cannot resurrect it. The poll interval is an hour, so any
// transition observed here came from the push path alone.
func TestRouterHealthPush(t *testing.T) {
	w := tinyWorld(t)
	f := startFleetWith(t, w, 2, server.Config{}, func(c *Config) {
		c.HealthInterval = time.Hour
		c.Breaker = federation.BreakerConfig{Failures: 5, Cooldown: 100 * time.Millisecond, Successes: 1}
	})
	f.waitConverged(t, len(w.initial))

	if st := pushHealth(t, f.rts.URL, 0, "down"); st != http.StatusNoContent {
		t.Fatalf("down push status = %d, want 204", st)
	}
	h, err := f.router.healthView()
	if err != nil {
		t.Fatal(err)
	}
	if h.Routable != 1 || h.Shards[0].Routable {
		t.Fatalf("down push not immediate: %+v", h)
	}

	// The shard is actually healthy, so an "up" push (which probes
	// before believing) restores it without waiting for a poll.
	if st := pushHealth(t, f.rts.URL, 0, "up"); st != http.StatusNoContent {
		t.Fatalf("up push status = %d, want 204", st)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		h, err := f.router.healthView()
		if err == nil && h.Routable == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("up push never restored the live shard: %+v", h)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Kill shard 1 for real: a spoofed "up" push must NOT make it
	// routable — the verification probe fails against the corpse.
	f.https[1].Close()
	f.shards[1].Abort()
	if st := pushHealth(t, f.rts.URL, 1, "down"); st != http.StatusNoContent {
		t.Fatalf("down push status = %d, want 204", st)
	}
	for i := 0; i < 5; i++ {
		if st := pushHealth(t, f.rts.URL, 1, "up"); st != http.StatusNoContent {
			t.Fatalf("spoofed up push status = %d, want 204", st)
		}
		time.Sleep(50 * time.Millisecond)
	}
	h, err = f.router.healthView()
	if err != nil {
		t.Fatal(err)
	}
	if h.Shards[1].Routable {
		t.Fatal("spoofed up push resurrected a dead shard")
	}

	// Malformed pushes are rejected.
	if st := pushHealth(t, f.rts.URL, 99, "down"); st != http.StatusBadRequest {
		t.Fatalf("unknown-shard push status = %d, want 400", st)
	}
	if st := pushHealth(t, f.rts.URL, 0, "sideways"); st != http.StatusBadRequest {
		t.Fatalf("unknown-status push status = %d, want 400", st)
	}
}

// Tentpole acceptance: under a 100% slow fleet the hedging budget caps
// upstream amplification — total /query sub-requests stay at most 2×
// the client query count, while at least one hedge actually fires.
// faultnet's per-(host,path) counters are the measurement.
func TestRouterHedgedReadsBoundedAmplification(t *testing.T) {
	w := splitWorld(t)
	tr := faultnet.New(11, nil)
	f := startFleetWith(t, w, 2, server.Config{}, func(c *Config) {
		c.Transport = tr
		c.Hedge = HedgeConfig{Delay: 10 * time.Millisecond}
	})
	f.waitConverged(t, len(w.initial))
	hosts := make([]string, f.n)
	for i, a := range f.addrs {
		hosts[i] = strings.TrimPrefix(a, "http://")
	}

	// Every shard is slow: the pathological case where naive hedging
	// would double (or worse) the upstream rate for zero benefit.
	tr.SetFaults("", faultnet.Faults{Latency: 120 * time.Millisecond})

	const m = 30
	for i := 0; i < m; i++ {
		if _, err := f.rclient.Query(w.queries[i%len(w.queries)]); err != nil {
			t.Fatalf("query %d under slow fleet: %v", i, err)
		}
	}

	total := 0
	for _, h := range hosts {
		total += tr.Requests(h, "/query")
	}
	if total <= m {
		t.Fatalf("no hedges fired: %d upstream /query attempts for %d queries", total, m)
	}
	if total > 2*m {
		t.Fatalf("hedging amplified upstream load: %d /query attempts for %d queries (bound: %d)", total, m, 2*m)
	}
	if f.router.metrics.hedges.Value() == 0 {
		t.Fatal("hedge counter never moved")
	}
	if f.router.metrics.hedgeBudgetDeny.Value() == 0 {
		t.Fatal("budget never denied a hedge under a 100% slow fleet")
	}
}

// The chaos drill acceptance, in-process: under seeded latency, drops,
// 5xx bursts, an asymmetric partition and a SIGKILL'd shard, every
// acked cross-shard feedback batch survives (journal audit) and the
// fleet's answers stay canonically identical to a single node that saw
// the same verdicts.
func TestRouterChaosDrillZeroAckedLoss(t *testing.T) {
	w := splitWorld(t)
	n := 2
	tr := faultnet.New(20260808, nil)
	base := server.Config{
		DataDir:       t.TempDir(),
		FlushInterval: 20 * time.Millisecond,
	}
	f := startFleetWith(t, w, n, base, func(c *Config) {
		c.Transport = tr
	})
	f.waitConverged(t, len(w.initial))
	hosts := make([]string, n)
	for i, a := range f.addrs {
		hosts[i] = strings.TrimPrefix(a, "http://")
	}

	chaos := faultnet.Faults{
		Latency:  2 * time.Millisecond,
		Jitter:   8 * time.Millisecond,
		DropProb: 0.15,
		ErrProb:  0.05,
	}
	tr.SetFaults("", chaos)

	// Three batches, each pairing one link from each owner group, so
	// every ack is two owners' acks under fire.
	batches := [][]server.LinkJSON{
		{{E1: "http://ds1/a1", E2: "http://ds2/b2"}, {E1: "http://ds1/a10", E2: "http://ds2/b11"}},
		{{E1: "http://ds1/a2", E2: "http://ds2/b1"}, {E1: "http://ds1/a11", E2: "http://ds2/b10"}},
		{{E1: "http://ds1/a3", E2: "http://ds2/b4"}, {E1: "http://ds1/a12", E2: "http://ds2/b13"}},
	}
	var acked []server.LinkJSON
	sendBatch := func(b []server.LinkJSON) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			status, err := f.rclient.FeedbackResult(ctx, b, false)
			cancel()
			if err == nil && status == http.StatusAccepted {
				acked = append(acked, b...)
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("batch %v never acked: status %d, err %v", b, status, err)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}

	sendBatch(batches[0])

	// SIGKILL shard 1 right after the ack — its slice of batch 0 may
	// still be queued for the writer, so recovery must finish the job
	// from the journal alone.
	f.https[1].Close()
	f.shards[1].Abort()
	f.restartShard(t, w, 1, base)
	newClient := server.NewClient(f.addrs[1])
	newClient.SetRetryPolicy(server.RetryPolicy{MaxAttempts: 1})
	f.clients[1] = newClient
	sendBatch(batches[1])

	// Asymmetric partition: the router loses shard 0 while shard 0
	// still reaches everyone. The batch retries until the heal lands.
	tr.SetFaults(hosts[0], faultnet.Faults{Partition: true})
	heal := time.AfterFunc(400*time.Millisecond, func() { tr.SetFaults(hosts[0], chaos) })
	defer heal.Stop()
	sendBatch(batches[2])

	// Quiet the network and let the fleet settle.
	tr.SetFaults("", faultnet.Faults{})
	for _, h := range hosts {
		tr.ClearFaults(h)
	}
	want := len(w.initial) - len(acked)
	f.waitConverged(t, want)

	// Journal audit: the killed shard rebuilt its state from disk, and
	// every acked rejection is gone from every shard and the router.
	if rec := f.shards[1].Recovery(); rec.CheckpointSeq == 0 && rec.Replayed == 0 {
		t.Fatal("restarted shard recovered nothing — acked feedback at risk")
	}
	audit := func(c *server.Client) {
		ls := waitServed(t, c, want)
		for _, l := range ls.Links {
			for _, r := range acked {
				if l == r {
					t.Fatalf("acked rejection %v still served", r)
				}
			}
		}
	}
	for _, c := range f.clients {
		audit(c)
	}
	audit(f.rclient)

	// Answer identity: a single node given the same verdicts must
	// canonicalize identically on every query.
	single, err := server.New(
		core.New(w.g1, w.g2, w.e1, w.e2, w.initial, core.DefaultConfig()),
		w.dict, w.sources, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sts := httptest.NewServer(single.Handler())
	t.Cleanup(func() {
		sts.Close()
		if err := single.Close(); err != nil {
			t.Errorf("close single node: %v", err)
		}
	})
	sc := server.NewClient(sts.URL)
	if err := sc.Feedback(acked, false); err != nil {
		t.Fatal(err)
	}
	waitServed(t, sc, want)
	for _, q := range w.queries {
		sres, err := sc.Query(q)
		if err != nil {
			t.Fatalf("single-node query %q: %v", q, err)
		}
		rres, err := f.rclient.Query(q)
		if err != nil {
			t.Fatalf("router query %q: %v", q, err)
		}
		if canon(rres) != canon(sres) {
			t.Fatalf("post-drill answer diverges for %q:\nrouter:\n%s\nsingle:\n%s", q, canon(rres), canon(sres))
		}
	}
}

// twoOwnerRejection is one rejection whose two links have different
// owners in splitWorld's two-shard split, indexed by owning shard.
func twoOwnerRejection() []server.LinkJSON {
	batch := make([]server.LinkJSON, 2)
	ranges := cluster.FleetRanges(2)
	for _, lj := range []server.LinkJSON{
		{E1: "http://ds1/a1", E2: "http://ds2/b2"},
		{E1: "http://ds1/a10", E2: "http://ds2/b11"},
	} {
		batch[cluster.OwnerOf(ranges, lj.E1)] = lj
	}
	return batch
}

func servesLink(ls *server.LinksResponse, lj server.LinkJSON) bool {
	for _, l := range ls.Links {
		if l == lj {
			return true
		}
	}
	return false
}

// kill takes shard id off the network and crashes it: no drain, no
// final episode, no checkpoint.
func (f *testFleet) kill(id int) {
	f.https[id].Close()
	f.shards[id].Abort()
}

// A batch that spans owners costs each owner exactly what a batch of
// its own would: one POST to /feedback, one journal record. Nothing
// else is said between router and shard, and nothing else is replayed.
func TestMultiOwnerFeedbackIsOneRecordPerOwner(t *testing.T) {
	w := splitWorld(t)
	n := 2
	tr := faultnet.New(1, nil)
	base := server.Config{DataDir: t.TempDir(), FlushInterval: 20 * time.Millisecond}
	f := startFleetWith(t, w, n, base, func(c *Config) { c.Transport = tr })
	f.waitConverged(t, len(w.initial))

	batch := twoOwnerRejection()
	status, err := f.rclient.FeedbackResult(context.Background(), batch, false)
	if err != nil || status != http.StatusAccepted {
		t.Fatalf("two-owner rejection: status %d, err %v; want 202", status, err)
	}
	// Health probes aside, the one thing the router said to each shard is
	// a single /feedback.
	for host, paths := range tr.Stats() {
		for path, count := range paths {
			if path != "/healthz" && path != "/feedback" {
				t.Errorf("router sent %d request(s) to %s%s", count, host, path)
			}
		}
	}
	for id, addr := range f.addrs {
		if got := tr.Requests(strings.TrimPrefix(addr, "http://"), "/feedback"); got != 1 {
			t.Errorf("router sent shard %d %d /feedback requests for its slice, want 1", id, got)
		}
	}
	f.waitConverged(t, len(w.initial)-len(batch))

	for id := range f.shards {
		f.kill(id)
	}
	for id := range f.shards {
		f.restartShard(t, w, id, base)
		if got := f.shards[id].Recovery().Replayed; got != 1 {
			t.Errorf("shard %d replayed %d journal records for its slice, want 1", id, got)
		}
	}
	for id, c := range f.clients {
		ls := waitServed(t, c, len(w.initial)-len(batch))
		for _, lj := range batch {
			if servesLink(ls, lj) {
				t.Errorf("shard %d serves rejected link %v after restart", id, lj)
			}
		}
	}
}

// A shard's 202 is the whole promise: once the client has its ack, the
// slice a shard acknowledged applies and can be checkpointed with the
// router gone and the other owner dead.
func TestAckedSliceAppliesWithoutPeers(t *testing.T) {
	w := splitWorld(t)
	n := 2
	tr := faultnet.New(1, nil)
	base := server.Config{DataDir: t.TempDir(), FlushInterval: 20 * time.Millisecond}
	f := startFleetWith(t, w, n, base, func(c *Config) { c.Transport = tr })
	f.waitConverged(t, len(w.initial))

	// Everything the router says to shard 0 arrives late, so whatever it
	// might still owe shard 0 after the ack is in flight when it dies.
	tr.SetFaults(strings.TrimPrefix(f.addrs[0], "http://"), faultnet.Faults{Latency: 200 * time.Millisecond})
	batch := twoOwnerRejection()
	status, err := f.rclient.FeedbackResult(context.Background(), batch, false)
	if err != nil || status != http.StatusAccepted {
		t.Fatalf("two-owner rejection: status %d, err %v; want 202", status, err)
	}
	f.rts.Close()
	if err := f.router.Close(); err != nil {
		t.Fatal(err)
	}
	f.kill(1)

	deadline := time.Now().Add(2 * time.Second)
	for {
		ls, err := f.clients[0].Links()
		if err == nil && !servesLink(ls, batch[0]) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard 0 still serves %v 2s after acknowledging its rejection (err %v)", batch[0], err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A graceful stop checkpoints what was applied; the next start loads
	// it and has nothing left to replay.
	f.https[0].Close()
	if err := f.shards[0].Close(); err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.DataDir = fmt.Sprintf("%s/shard-0", base.DataDir)
	cfg.Fleet = &server.FleetConfig{ShardID: 0, Shards: n}
	again, err := server.New(shardEngine(w, n, 0), w.dict, w.sources, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if rec := again.Recovery(); rec.CheckpointSeq == 0 || rec.Replayed != 0 {
		t.Fatalf("shard 0 restarted with checkpoint seq %d and %d records to replay; want a checkpoint covering its slice and nothing to replay",
			rec.CheckpointSeq, rec.Replayed)
	}
	e1, _ := w.dict.Lookup(rdf.IRI(batch[0].E1))
	e2, _ := w.dict.Lookup(rdf.IRI(batch[0].E2))
	if again.Snapshot().Own.Has(links.Link{E1: e1, E2: e2}) {
		t.Fatalf("the checkpoint shard 0 restarted from still holds %v", batch[0])
	}
}
