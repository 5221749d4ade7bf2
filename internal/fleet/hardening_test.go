package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
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

// splitWorld builds a world whose dataset-1 entities cover every owner
// of an n-shard fleet: four per owner, the first entities a1, a2, ...
// that hash to it. Each owner's four initial links are crossed in pairs
// between its own entities, so rejecting them is a pure removal — no
// exploration noise — and spanningBatch, which takes one link from each
// owner, always spans every owner.
func splitWorld(t testing.TB, n int) *world {
	t.Helper()
	dict := rdf.NewDict()
	g1 := rdf.NewGraphWithDict(dict)
	g2 := rdf.NewGraphWithDict(dict)
	label := rdf.IRI("http://ds1/label")
	name := rdf.IRI("http://ds2/name")
	ranges := cluster.FleetRanges(n)
	owned := make([][]int, n)
	var queries []string
	for i, full := 1, 0; full < n; i++ {
		a := rdf.IRI(fmt.Sprintf("http://ds1/a%d", i))
		o := cluster.OwnerOf(ranges, a.Value)
		if len(owned[o]) == 4 {
			continue
		}
		if owned[o] = append(owned[o], i); len(owned[o]) == 4 {
			full++
		}
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
	// Owner o's entities (p, q, r, s) get the crossed links p→q, q→p,
	// r→s, s→r.
	var initial []links.Link
	for _, nums := range owned {
		for k, i := range nums {
			initial = append(initial, links.Link{
				E1: id(rdf.IRI(fmt.Sprintf("http://ds1/a%d", i))),
				E2: id(rdf.IRI(fmt.Sprintf("http://ds2/b%d", nums[k^1]))),
			})
		}
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

// The read path's one failover rule: when the shard a query was routed
// to answers 5xx or refuses the connection, it is marked down and the
// next routable shard is asked, and ITS bytes are relayed — a plain 200,
// with no X-Alex-Fleet-Degraded, because one replica's answer is the
// full answer. A shard is asked once, so the failover is at once, not
// after retries. The health interval is an hour, so the first query of
// each fleet goes to shard 0 and only the data path changes what is
// routable. A shard that hangs is not asked around: its query ends at
// its deadline, and the probe loop takes the shard out of rotation.
func TestRouterFailsOverOn5xxAndTransportError(t *testing.T) {
	cases := []struct {
		name  string
		fault faultnet.Faults
	}{
		{"5xx", faultnet.Faults{ErrProb: 1}},
		{"refused", faultnet.Faults{Partition: true}},
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
			if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
				t.Fatalf("failover took %s, want at most 250ms", elapsed)
			}
			if d := hdr.Get("X-Alex-Fleet-Degraded"); d != "" {
				t.Fatalf("a failed-over 200 carries X-Alex-Fleet-Degraded: %s", d)
			}
			if tr.Requests(hosts[0], "/query") != 1 || tr.Requests(hosts[1], "/query") != 1 {
				t.Fatalf("upstream /query attempts %v, want one on each shard", tr.Stats())
			}
			m := &f.router.metrics
			if got := m.queryFanouts.Sum(); got != 2 {
				t.Fatalf("shards asked %v, want 2", got)
			}
			h, err := f.router.healthView()
			if err != nil {
				t.Fatal(err)
			}
			if h.Shards[0].Routable || !h.Shards[1].Routable {
				t.Fatalf("routable after the failover: %+v", h.Shards)
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

	// What bounds a hang: the query's own deadline, then the probe loop.
	// Shard 0 answers nothing for 5 s; a query with a 300 ms budget gets
	// 504 well inside a second, shard 0's next probe times out and takes
	// it out of rotation, and the next query is the peer's answer.
	t.Run("hangs", func(t *testing.T) {
		w := tinyWorld(t)
		tp := &tap{}
		tr := faultnet.New(7, tp)
		f := startFleetWith(t, w, 2, server.Config{}, func(c *Config) {
			c.HealthInterval = 50 * time.Millisecond
			c.Transport = tr
		})
		f.waitConverged(t, len(w.initial))
		hosts := []string{strings.TrimPrefix(f.addrs[0], "http://"), strings.TrimPrefix(f.addrs[1], "http://")}
		tr.SetFaults(hosts[0], faultnet.Faults{Latency: 5 * time.Second})

		start := time.Now()
		status, _, got := postQuery(t, f.rts.URL, queryBody(t, server.QueryRequest{Query: w.queries[0], TimeoutMillis: 300}))
		if elapsed := time.Since(start); status != http.StatusGatewayTimeout || elapsed > time.Second {
			t.Fatalf("query held by a hung shard got %d %s after %s, want 504 within 1s", status, got, elapsed)
		}
		if seen := tp.take(); len(seen) != 0 {
			t.Fatalf("shards that answered: %+v, want none", seen)
		}
		if d := untilRoutable(t, f.router, 0, false); d > 3*time.Second {
			t.Fatalf("hung shard 0 left the rotation after %s, want within 3s", d)
		}
		body := queryBody(t, server.QueryRequest{Query: w.queries[0]})
		status, _, got = postQuery(t, f.rts.URL, body)
		seen := tp.take()
		if len(seen) != 1 || seen[0].host != hosts[1] {
			t.Fatalf("shards that answered: %+v, want the peer alone", seen)
		}
		if status != http.StatusOK || !bytes.Equal(got, seen[0].resp) {
			t.Fatalf("router answered %d %s, the peer answered %s", status, got, seen[0].resp)
		}
	})
}

// Router.Close during an in-flight health probe cancels the probe: it
// cannot wait out the probe timeout. That no probe loop outlives Close
// is TestRouterCloseWaitsForProbeLoops's check.
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

	r, err := New(Config{
		Shards:         []string{"http://" + ln.Addr().String()},
		HealthInterval: 20 * time.Millisecond,
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
}

// untilRoutable polls shard id until the router's verdict on it reads
// want, and returns how long that took.
func untilRoutable(t *testing.T, r *Router, id int, want bool) time.Duration {
	t.Helper()
	start := time.Now()
	for r.shards[id].routable.Load() != want {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("shard %d not routable=%v after 10s", id, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return time.Since(start)
}

// Each shard has its own probe loop, so a shard whose /healthz hangs
// holds up no other shard's verdict: with shard 0's probe hung until
// its 2 s timeout, a partitioned shard 1 is down within a few 50 ms
// intervals.
func TestRouterHungShardDelaysNoOtherVerdict(t *testing.T) {
	w := tinyWorld(t)
	tr := faultnet.New(5, nil)
	f := startFleetWith(t, w, 2, server.Config{}, func(c *Config) { c.Transport = tr })
	f.waitConverged(t, len(w.initial))
	tr.SetFaults(strings.TrimPrefix(f.addrs[0], "http://"), faultnet.Faults{Latency: time.Minute})
	time.Sleep(100 * time.Millisecond) // shard 0's probe is in flight
	tr.SetFaults(strings.TrimPrefix(f.addrs[1], "http://"), faultnet.Faults{Partition: true})
	if d := untilRoutable(t, f.router, 1, false); d > 500*time.Millisecond {
		t.Fatalf("partitioned shard 1 marked down after %s behind a hung shard 0, want within 500ms", d)
	}
}

// closingHealthz answers host's /healthz, while host is set, as a
// draining alexd does (200, status "closing"), and forwards every other
// request.
type closingHealthz struct {
	mu   sync.Mutex
	host string
}

func (c *closingHealthz) set(host string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.host = host
}

func (c *closingHealthz) RoundTrip(req *http.Request) (*http.Response, error) {
	c.mu.Lock()
	closing := req.URL.Path == "/healthz" && req.URL.Host == c.host
	c.mu.Unlock()
	if !closing {
		return http.DefaultTransport.RoundTrip(req)
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       io.NopCloser(strings.NewReader(`{"status":"closing"}`)),
		Request:    req,
	}, nil
}

// The first good probe makes a down shard routable again: a shard that
// fails its probes for 0.5 s is back within a few 50 ms intervals of
// answering "ok", with no cooldown to wait out. Meanwhile the router's
// /healthz is read without pause, so under -race a probe that writes a
// health report it already published races the reader.
func TestRouterShardRoutableOnFirstGoodProbe(t *testing.T) {
	w := tinyWorld(t)
	ch := &closingHealthz{}
	f := startFleetWith(t, w, 2, server.Config{}, func(c *Config) { c.Transport = ch })
	f.waitConverged(t, len(w.initial))
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			if _, err := f.router.healthView(); err != nil {
				t.Errorf("router /healthz: %v", err)
				return
			}
		}
	}()
	defer func() { close(stop); <-done }()
	ch.set(strings.TrimPrefix(f.addrs[1], "http://"))
	start := time.Now()
	untilRoutable(t, f.router, 1, false)
	time.Sleep(500*time.Millisecond - time.Since(start))
	ch.set("")
	if d := untilRoutable(t, f.router, 1, true); d > 500*time.Millisecond {
		t.Fatalf("shard 1 routable %s after its first good answer, want within 500ms", d)
	}
}

// The router asks an owner once: an owner's 503 to /feedback reaches
// the client after one request, with Retry-After, and the client's
// retry is the only one.
func TestRouterAsksAnOwnerOnce(t *testing.T) {
	w := tinyWorld(t)
	tr := faultnet.New(2, nil)
	f := startFleetWith(t, w, 2, server.Config{}, func(c *Config) {
		c.Transport = tr
		// One probe at start: the 503s are the owner's answer to
		// /feedback, not a shard going down.
		c.HealthInterval = time.Hour
	})
	f.waitConverged(t, len(w.initial))
	l := server.LinkJSON{E1: w.dict.Term(w.initial[0].E1).Value, E2: w.dict.Term(w.initial[0].E2).Value}
	owner := strings.TrimPrefix(f.addrs[cluster.OwnerOf(cluster.FleetRanges(2), l.E1)], "http://")
	tr.SetFaults(owner, faultnet.Faults{ErrProb: 1})
	body, err := json.Marshal(server.FeedbackRequest{Links: []server.LinkJSON{l}})
	if err != nil {
		t.Fatal(err)
	}
	status, hdr, data := post(t, f.rts.URL+"/feedback", body)
	if status != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("feedback to a refusing owner: status %d, Retry-After %q, body %s; want 503 with Retry-After",
			status, hdr.Get("Retry-After"), data)
	}
	if got := tr.Requests(owner, "/feedback"); got != 1 {
		t.Fatalf("the owner got %d /feedback requests, want 1", got)
	}
}

// A client that gives up ends the router's request to the shard: each
// of /query, /feedback and /links is asked of a shard under the
// client's request context, so a shard that never answers sees its
// request end within 2 s of a client that waited 200 ms — far below
// QueryTimeout (10 s) and the shard client's 30 s request bound.
func TestRouterClientGiveUpCancelsShardRequest(t *testing.T) {
	cases := []struct{ method, path, body string }{
		{http.MethodPost, "/query", `{"query":"SELECT ?n WHERE { <http://ds1/a1> <http://ds2/name> ?n . }"}`},
		{http.MethodPost, "/feedback", `{"approve":false,"links":[{"e1":"http://ds1/a1","e2":"http://ds2/b1"}]}`},
		{http.MethodGet, "/links", ""},
	}
	for _, tc := range cases {
		t.Run(strings.TrimPrefix(tc.path, "/"), func(t *testing.T) {
			ended := make(chan struct{})
			release := make(chan struct{})
			shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
				switch req.URL.Path {
				case "/healthz":
					writeJSON(w, http.StatusOK, server.HealthResponse{Status: "ok"})
				case tc.path:
					// The server watches for a gone client only once
					// the body is read.
					if _, err := io.Copy(io.Discard, req.Body); err != nil {
						t.Errorf("reading the %s body: %v", tc.path, err)
					}
					select {
					case <-req.Context().Done():
						close(ended)
					case <-release:
					}
				default:
					http.NotFound(w, req)
				}
			}))
			defer shard.Close()
			r, err := New(Config{Shards: []string{shard.URL}, HealthInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			rts := httptest.NewServer(r.Handler())
			defer rts.Close()
			// Runs first: a shard request the router failed to cancel
			// returns, so the servers above can close.
			defer close(release)

			req, err := http.NewRequest(tc.method, rts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			client := &http.Client{Timeout: 200 * time.Millisecond}
			resp, err := client.Do(req)
			if err == nil {
				resp.Body.Close()
				t.Fatalf("%s to a shard that never answers: HTTP %d, want the client's timeout", tc.path, resp.StatusCode)
			}
			select {
			case <-ended:
			case <-time.After(2 * time.Second):
				t.Fatalf("the shard's %s request was still open 2s after the client gave up", tc.path)
			}
		})
	}
}

// Reads are not amplified: under a 100% slow fleet — where a router that
// asked around a slow shard would send a second /query for nearly every
// client query — each client query is exactly one upstream /query.
// faultnet's per-(host,path) counters are the measurement.
func TestRouterOneUpstreamQueryPerClientQuery(t *testing.T) {
	w := splitWorld(t, 2)
	tr := faultnet.New(11, nil)
	f := startFleetWith(t, w, 2, server.Config{}, func(c *Config) {
		c.Transport = tr
		c.HealthInterval = time.Hour // no poll can take a slow shard out of the rotation
	})
	f.waitConverged(t, len(w.initial))
	tr.SetFaults("", faultnet.Faults{Latency: 120 * time.Millisecond})

	const m = 30
	for i := 0; i < m; i++ {
		if _, err := f.rclient.Query(w.queries[i%len(w.queries)]); err != nil {
			t.Fatalf("query %d under slow fleet: %v", i, err)
		}
	}
	total := 0
	for _, a := range f.addrs {
		total += tr.Requests(strings.TrimPrefix(a, "http://"), "/query")
	}
	if total != m {
		t.Fatalf("%d upstream /query requests for %d client queries, want %d", total, m, m)
	}
	if got := f.router.metrics.queryFanouts.Sum(); got != m {
		t.Fatalf("alexrouter_query_fanout sums to %v shards asked, want %d", got, m)
	}
}

// The chaos drill acceptance, in-process, at two shards and at three:
// under seeded latency, drops, 5xx bursts, an asymmetric partition and
// a SIGKILL'd shard, every acked feedback batch spanning every owner
// survives (journal audit) and the fleet's answers stay canonically
// identical to a single node that saw the same verdicts. The
// partitioned shard is never the killed one.
func TestRouterChaosDrillZeroAckedLoss(t *testing.T) {
	for _, tc := range []struct{ n, kill, partition int }{
		{n: 2, kill: 1, partition: 0},
		{n: 3, kill: 1, partition: 2},
	} {
		t.Run(fmt.Sprintf("%d shards", tc.n), func(t *testing.T) {
			chaosDrill(t, tc.n, tc.kill, tc.partition)
		})
	}
}

func chaosDrill(t *testing.T, n, kill, partition int) {
	w := splitWorld(t, n)
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

	// Three batches, each one link from every owner, so every ack is n
	// owners' acks under fire.
	sendBatch(spanningBatch(t, w, n, 0))

	// SIGKILL a shard right after the ack — its slice may still be
	// queued for the writer, so recovery must finish the job from the
	// journal alone.
	f.kill(kill)
	f.restartShard(t, w, kill, base)
	f.clients[kill] = server.NewClient(f.addrs[kill])
	sendBatch(spanningBatch(t, w, n, 1))

	// Asymmetric partition: the router loses a shard while that shard
	// still reaches everyone. The batch retries until the heal lands.
	tr.SetFaults(hosts[partition], faultnet.Faults{Partition: true})
	heal := time.AfterFunc(400*time.Millisecond, func() { tr.SetFaults(hosts[partition], chaos) })
	defer heal.Stop()
	sendBatch(spanningBatch(t, w, n, 2))

	// Quiet the network and let the fleet settle.
	tr.SetFaults("", faultnet.Faults{})
	for _, h := range hosts {
		tr.ClearFaults(h)
	}
	want := len(w.initial) - len(acked)
	f.waitConverged(t, want)

	// Journal audit: the killed shard rebuilt its state from disk, and
	// every acked rejection is gone from every shard and the router.
	if rec := f.shards[kill].Recovery(); rec.CheckpointSeq == 0 && rec.Replayed == 0 {
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

// A restarted shard recovers its episode count exactly, but its
// snapshot versions start again at 1, below the versions its peers hold
// from its previous boot. Peers must still take its manifests at once:
// ordered by version alone, they would serve its pre-crash partition —
// links it has since acked as rejected — until its new versions climbed
// past the old ones.
func TestRestartedShardReplicatesBelowItsOldVersion(t *testing.T) {
	w := splitWorld(t, 2)
	base := server.Config{DataDir: t.TempDir(), FlushInterval: 20 * time.Millisecond}
	f := startFleet(t, w, 2, base)
	f.waitConverged(t, len(w.initial))
	reject := func(k int) {
		t.Helper()
		if err := f.clients[1].Feedback(spanningBatch(t, w, 2, k)[1:], false); err != nil {
			t.Fatal(err)
		}
		f.waitConverged(t, len(w.initial)-k-1)
	}
	// Three rejections on shard 1, each published and replicated before
	// the next.
	for k := 0; k < 3; k++ {
		reject(k)
	}
	old := f.shards[1].Snapshot()
	// Four anti-entropy rounds: every peer holds a manifest at
	// least as new as old.
	time.Sleep(100 * time.Millisecond)
	f.kill(1)
	f.restartShard(t, w, 1, base)
	f.clients[1] = server.NewClient(f.addrs[1])
	if rec := f.shards[1].Recovery(); rec.Replayed != 3 {
		t.Fatalf("restarted shard replayed %d journal records, want 3", rec.Replayed)
	}
	if ep := f.shards[1].Snapshot().Episode; ep != old.Episode {
		t.Fatalf("restarted shard recovered episode %d, it had closed %d", ep, old.Episode)
	}
	reject(3)
	if v := f.shards[1].Snapshot().Version; v >= old.Version {
		t.Fatalf("restarted shard reached version %d before its peers served its rejection, not below its old boot's %d",
			v, old.Version)
	}
}

// spanningBatch is a rejection of the k-th initial link of every owner
// in an n-shard split of w, indexed by owning shard.
func spanningBatch(t testing.TB, w *world, n, k int) []server.LinkJSON {
	t.Helper()
	ranges := cluster.FleetRanges(n)
	batch := make([]server.LinkJSON, n)
	seen := make([]int, n)
	for _, l := range w.initial {
		lj := server.LinkJSON{E1: w.dict.Term(l.E1).Value, E2: w.dict.Term(l.E2).Value}
		o := cluster.OwnerOf(ranges, lj.E1)
		if seen[o] == k {
			batch[o] = lj
		}
		seen[o]++
	}
	for o, lj := range batch {
		if lj.E1 == "" {
			t.Fatalf("shard %d of %d owns no initial link #%d", o, n, k)
		}
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
	w := splitWorld(t, 2)
	n := 2
	tr := faultnet.New(1, nil)
	base := server.Config{DataDir: t.TempDir(), FlushInterval: 20 * time.Millisecond}
	f := startFleetWith(t, w, n, base, func(c *Config) { c.Transport = tr })
	f.waitConverged(t, len(w.initial))

	batch := spanningBatch(t, w, 2, 0)
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
	w := splitWorld(t, 2)
	n := 2
	tr := faultnet.New(1, nil)
	base := server.Config{DataDir: t.TempDir(), FlushInterval: 20 * time.Millisecond}
	f := startFleetWith(t, w, n, base, func(c *Config) { c.Transport = tr })
	f.waitConverged(t, len(w.initial))

	// Everything the router says to shard 0 arrives late, so whatever it
	// might still owe shard 0 after the ack is in flight when it dies.
	tr.SetFaults(strings.TrimPrefix(f.addrs[0], "http://"), faultnet.Faults{Latency: 200 * time.Millisecond})
	batch := spanningBatch(t, w, 2, 0)
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
	if slices.Contains(again.Snapshot().Own, links.Link{E1: e1, E2: e2}) {
		t.Fatalf("the checkpoint shard 0 restarted from still holds %v", batch[0])
	}
}
