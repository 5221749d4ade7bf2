package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"alex/internal/cluster"
	"alex/internal/core"
	"alex/internal/faultnet"
	"alex/internal/federation"
	"alex/internal/links"
	"alex/internal/paris"
	"alex/internal/rdf"
	"alex/internal/server"
	"alex/internal/synth"
)

// world is one test dataset pair: everything needed to build either a
// single-node server or any number of shards over identical data.
type world struct {
	dict    *rdf.Dict
	g1, g2  *rdf.Graph
	sources []federation.Source
	e1, e2  []rdf.ID
	initial []links.Link
	// queries exercise the federated path across the links.
	queries []string
}

// tinyWorld hand-builds six dataset-1 entities so even a 4-shard split
// leaves most shards non-empty, with two deliberately wrong links.
func tinyWorld(t testing.TB) *world {
	t.Helper()
	dict := rdf.NewDict()
	g1 := rdf.NewGraphWithDict(dict)
	g2 := rdf.NewGraphWithDict(dict)
	label := rdf.IRI("http://ds1/label")
	name := rdf.IRI("http://ds2/name")
	var initial []links.Link
	id := func(term rdf.Term) rdf.ID {
		i, ok := dict.Lookup(term)
		if !ok {
			t.Fatalf("unknown term %v", term)
		}
		return i
	}
	var queries []string
	for i := 0; i < 6; i++ {
		a := rdf.IRI(fmt.Sprintf("http://ds1/a%d", i))
		b := rdf.IRI(fmt.Sprintf("http://ds2/b%d", i))
		g1.Insert(rdf.Triple{S: a, P: label, O: rdf.Literal(fmt.Sprintf("thing %d", i))})
		g2.Insert(rdf.Triple{S: b, P: name, O: rdf.Literal(fmt.Sprintf("thing %d prime", i))})
		queries = append(queries,
			fmt.Sprintf("SELECT ?n WHERE { <%s> <%s> ?n . }", a.Value, name.Value),
			fmt.Sprintf("ASK { <%s> <%s> ?n . }", a.Value, name.Value),
		)
	}
	for i := 0; i < 6; i++ {
		// Links 0..3 are right; 4 and 5 are crossed (wrong on purpose).
		j := i
		if i >= 4 {
			j = 9 - i // 4<->5 swapped
		}
		initial = append(initial, links.Link{
			E1: id(rdf.IRI(fmt.Sprintf("http://ds1/a%d", i))),
			E2: id(rdf.IRI(fmt.Sprintf("http://ds2/b%d", j))),
		})
	}
	return &world{
		dict: dict, g1: g1, g2: g2,
		sources: []federation.Source{{Name: "ds1", Graph: g1}, {Name: "ds2", Graph: g2}},
		e1:      g1.SubjectIDs(), e2: g2.SubjectIDs(),
		initial: initial,
		queries: queries,
	}
}

// synthWorld is a scaled-down generated dataset with PARIS-produced
// initial links — the repo's standard "realistic" test world.
func synthWorld(t testing.TB) *world {
	t.Helper()
	prof, ok := synth.ProfileByName("dbpedia-drugbank")
	if !ok {
		t.Fatal("missing profile")
	}
	ds := synth.Generate(prof.Scale(0.15))
	scored := paris.Link(ds.G1, ds.G2, ds.Entities1, ds.Entities2, paris.NewOptions())
	initial := make([]links.Link, len(scored))
	for i, sc := range scored {
		initial[i] = sc.Link
	}
	var queries []string
	for i, e := range ds.Entities1 {
		if i >= 12 {
			break
		}
		queries = append(queries,
			fmt.Sprintf("SELECT ?n WHERE { <%s> <%s> ?n . }", ds.Dict.Term(e).Value, synth.P2Name.Value))
	}
	return &world{
		dict: ds.Dict, g1: ds.G1, g2: ds.G2,
		sources: []federation.Source{{Name: "ds1", Graph: ds.G1}, {Name: "ds2", Graph: ds.G2}},
		e1:      ds.Entities1, e2: ds.Entities2,
		initial: initial,
		queries: queries,
	}
}

// testFleet is a running fleet: shard servers, their HTTP frontends
// and a router, all sharing the world's dictionary in-process.
type testFleet struct {
	n       int
	shards  []*server.Server
	https   []*httptest.Server
	addrs   []string
	clients []*server.Client
	router  *Router
	rts     *httptest.Server
	rclient *server.Client
}

// shardEngine builds shard id's engine: the world's data restricted to
// the dataset-1 entities (and initial links) its hash range owns.
func shardEngine(w *world, n, id int) *core.System {
	ranges := cluster.FleetRanges(n)
	var e1 []rdf.ID
	for _, e := range w.e1 {
		if ranges[id].ContainsIRI(w.dict.Term(e).Value) {
			e1 = append(e1, e)
		}
	}
	var init []links.Link
	for _, l := range w.initial {
		if cluster.OwnerOf(ranges, w.dict.Term(l.E1).Value) == id {
			init = append(init, l)
		}
	}
	return core.New(w.g1, w.g2, e1, w.e2, init, core.DefaultConfig())
}

// fastBreaker trips after one failure and probes again quickly, so
// failover tests don't wait out production cooldowns.
func fastBreaker() federation.BreakerConfig {
	return federation.BreakerConfig{Failures: 1, Cooldown: 100 * time.Millisecond, Successes: 1}
}

func startFleet(t testing.TB, w *world, n int, scfg server.Config) *testFleet {
	return startFleetWith(t, w, n, scfg, nil)
}

// startFleetWith is startFleet with a router-config hook: the hardening
// tests use it to inject a faultnet transport, tune hedging or shrink
// probe timeouts without duplicating the harness.
func startFleetWith(t testing.TB, w *world, n int, scfg server.Config, mut func(*Config)) *testFleet {
	t.Helper()
	f := &testFleet{n: n}
	for id := 0; id < n; id++ {
		cfg := scfg
		cfg.Fleet = &server.FleetConfig{ShardID: id, Shards: n, ReplicateEvery: 25 * time.Millisecond}
		if cfg.FlushInterval == 0 {
			cfg.FlushInterval = 20 * time.Millisecond
		}
		if cfg.DataDir != "" {
			cfg.DataDir = fmt.Sprintf("%s/shard-%d", cfg.DataDir, id)
		}
		s, err := server.New(shardEngine(w, n, id), w.dict, w.sources, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		f.shards = append(f.shards, s)
		f.https = append(f.https, ts)
		f.addrs = append(f.addrs, ts.URL)
		c := server.NewClient(ts.URL)
		c.SetRetryPolicy(server.RetryPolicy{MaxAttempts: 1})
		f.clients = append(f.clients, c)
	}
	for _, s := range f.shards {
		if err := s.SetPeers(f.addrs); err != nil {
			t.Fatal(err)
		}
	}
	rcfg := Config{
		Shards:         f.addrs,
		HealthInterval: 50 * time.Millisecond,
		Breaker:        fastBreaker(),
		Retry:          &server.RetryPolicy{MaxAttempts: 1},
	}
	if mut != nil {
		mut(&rcfg)
	}
	r, err := New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	f.router = r
	f.rts = httptest.NewServer(r.Handler())
	f.rclient = server.NewClient(f.rts.URL)
	f.rclient.SetRetryPolicy(server.RetryPolicy{MaxAttempts: 1})
	t.Cleanup(func() {
		f.rts.Close()
		r.Close()
		for i := range f.shards {
			f.https[i].Close()
			f.shards[i].Close()
		}
	})
	return f
}

// waitServed polls until client serves exactly want links.
func waitServed(t testing.TB, c *server.Client, want int) *server.LinksResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ls, err := c.Links()
		if err == nil && ls.Count == want {
			return ls
		}
		if time.Now().After(deadline) {
			count := -1
			if ls != nil {
				count = ls.Count
			}
			t.Fatalf("served links = %d (err %v), want %d", count, err, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitConverged waits until every shard serves the full link set.
func (f *testFleet) waitConverged(t testing.TB, want int) {
	t.Helper()
	for _, c := range f.clients {
		waitServed(t, c, want)
	}
}

// writeField appends one length-prefixed string, making the
// concatenation of any field sequence injective.
func writeField(b *strings.Builder, s string) {
	b.WriteString(strconv.Itoa(len(s)))
	b.WriteByte(':')
	b.WriteString(s)
}

// rowKey is the injective identity of an answer row: sorted variable
// bindings (kind, value, datatype, lang) plus sorted provenance links.
func rowKey(row server.RowJSON) string {
	vars := make([]string, 0, len(row.Binding))
	for v := range row.Binding {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	var b strings.Builder
	for _, v := range vars {
		t := row.Binding[v]
		writeField(&b, v)
		writeField(&b, t.Kind)
		writeField(&b, t.Value)
		writeField(&b, t.Datatype)
		writeField(&b, t.Lang)
	}
	b.WriteByte('|')
	ls := append([]server.LinkJSON(nil), row.Links...)
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].E1 != ls[j].E1 {
			return ls[i].E1 < ls[j].E1
		}
		return ls[i].E2 < ls[j].E2
	})
	for _, l := range ls {
		writeField(&b, l.E1)
		writeField(&b, l.E2)
	}
	return b.String()
}

func row(v, val string, ls ...server.LinkJSON) server.RowJSON {
	return server.RowJSON{
		Binding: map[string]server.TermJSON{v: {Kind: "literal", Value: val}},
		Links:   ls,
	}
}

// rowKey must never collide across distinct rows: differing values,
// link lists, datatypes and adversarial field contents (separators
// inside values) all key apart, while link order keys together.
func TestRowKeyInjective(t *testing.T) {
	l1 := server.LinkJSON{E1: "a", E2: "b"}
	l2 := server.LinkJSON{E1: "c", E2: "d"}
	distinct := []server.RowJSON{
		row("n", "x"),
		row("n", "y"),
		row("m", "x"),
		row("n", "x", l1),
		row("n", "x", l1, l2),
		row("n", "x", server.LinkJSON{E1: "ab", E2: ""}),
		{Binding: map[string]server.TermJSON{"n": {Kind: "literal", Value: "x", Lang: "en"}}},
		{Binding: map[string]server.TermJSON{"n": {Kind: "literal", Value: "x", Datatype: "en"}}},
		{Binding: map[string]server.TermJSON{"n": {Kind: "iri", Value: "x"}}},
		{Binding: map[string]server.TermJSON{"n": {Kind: "literal", Value: "3:a"}}},
		{Binding: map[string]server.TermJSON{"n": {Kind: "literal", Value: ""}, "3:a": {Kind: "literal"}}},
	}
	seen := map[string]int{}
	for i, r := range distinct {
		k := rowKey(r)
		if j, ok := seen[k]; ok {
			t.Fatalf("rows %d and %d collide on key %q", j, i, k)
		}
		seen[k] = i
	}
	// Link ORDER is not identity: provenance is a set.
	if rowKey(row("n", "x", l1, l2)) != rowKey(row("n", "x", l2, l1)) {
		t.Fatal("link order changed the row key")
	}
}

// canon renders a response canonically: sorted injective row keys plus
// the sorted degradation marker and the ASK verdict. Two responses
// over the same data must canonicalize identically (acceptance:
// rows + provenance + Degraded).
func canon(res *server.QueryResponse) string {
	keys := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		keys = append(keys, rowKey(r))
	}
	sort.Strings(keys)
	deg := append([]string(nil), res.DegradedSources...)
	sort.Strings(deg)
	ask := "-"
	if res.Ask != nil {
		ask = fmt.Sprint(*res.Ask)
	}
	return strings.Join(keys, "\n") + "\n|deg:" + strings.Join(deg, ",") + "|ask:" + ask
}

// postQuery posts body to url's /query and returns what came back.
func postQuery(t testing.TB, url string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	return post(t, url+"/query", body)
}

// post posts a JSON body to url and returns what came back.
func post(t testing.TB, url string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

func queryBody(t testing.TB, req server.QueryRequest) []byte {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// exchange is one /query round trip between the router and a shard.
type exchange struct {
	host      string
	req, resp []byte
}

// tap is a transport recording the router's /query exchanges, so a
// test can hold what the router relayed to what it was given.
type tap struct {
	mu   sync.Mutex
	seen []exchange
}

func (tp *tap) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/query" {
		return http.DefaultTransport.RoundTrip(req)
	}
	sent, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	req.Body = io.NopCloser(bytes.NewReader(sent))
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	got, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(got))
	tp.mu.Lock()
	tp.seen = append(tp.seen, exchange{host: req.URL.Host, req: sent, resp: got})
	tp.mu.Unlock()
	return resp, nil
}

// take returns the exchanges recorded since the last call.
func (tp *tap) take() []exchange {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	out := tp.seen
	tp.seen = nil
	return out
}

// The tentpole acceptance: a router over 1, 2 and 4 shards answers
// every test-world query with exactly the bytes of the one shard it
// asked, having sent that shard exactly the bytes the client sent
// (timeout_ms included), and those bytes are canonically a single-node
// alexd's answer over the same data.
func TestRouterEquivalenceWithSingleNode(t *testing.T) {
	worlds := map[string]func(testing.TB) *world{
		"tiny":  tinyWorld,
		"synth": synthWorld,
	}
	for name, mk := range worlds {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			w := mk(t)

			single, err := server.New(
				core.New(w.g1, w.g2, w.e1, w.e2, w.initial, core.DefaultConfig()),
				w.dict, w.sources, server.Config{})
			if err != nil {
				t.Fatal(err)
			}
			sts := httptest.NewServer(single.Handler())
			t.Cleanup(func() { sts.Close(); single.Close() })
			sc := server.NewClient(sts.URL)

			want := make([]string, len(w.queries))
			for i, q := range w.queries {
				res, err := sc.Query(q)
				if err != nil {
					t.Fatalf("single-node query %q: %v", q, err)
				}
				want[i] = canon(res)
			}

			for _, n := range []int{1, 2, 4} {
				n := n
				t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
					tp := &tap{}
					f := startFleetWith(t, w, n, server.Config{}, func(c *Config) {
						c.Transport = tp
						c.Hedge.Disabled = true // one shard asked per query, so one exchange to compare with
					})
					f.waitConverged(t, len(w.initial))
					asked := map[string]bool{}
					for i, q := range w.queries {
						sent := queryBody(t, server.QueryRequest{Query: q, TimeoutMillis: 9000})
						status, _, got := postQuery(t, f.rts.URL, sent)
						if status != http.StatusOK {
							t.Fatalf("router query %q: status %d: %s", q, status, got)
						}
						seen := tp.take()
						if len(seen) != 1 {
							t.Fatalf("router asked %d shards for %q, want 1", len(seen), q)
						}
						asked[seen[0].host] = true
						if !bytes.Equal(seen[0].req, sent) {
							t.Fatalf("shard was sent\n%s\nthe client sent\n%s", seen[0].req, sent)
						}
						if !bytes.Equal(got, seen[0].resp) {
							t.Fatalf("router relayed\n%s\nthe shard answered\n%s", got, seen[0].resp)
						}
						var res server.QueryResponse
						if err := json.Unmarshal(got, &res); err != nil {
							t.Fatalf("router answer to %q: %v", q, err)
						}
						if c := canon(&res); c != want[i] {
							t.Fatalf("router answer diverges from single node for %q:\nrouter:\n%s\nsingle:\n%s", q, c, want[i])
						}
					}
					if len(asked) != n {
						t.Fatalf("%d of %d shards were asked", len(asked), n)
					}
				})
			}
		})
	}
}

// shardQueries reads shard i's alexd_queries_total off its /metrics.
func (f *testFleet) shardQueries(t testing.TB, i int) int {
	t.Helper()
	text, err := f.clients[i].MetricsText()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, "alexd_queries_total "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatal("alexd_queries_total missing from /metrics")
	return 0
}

// Queries go to the routable shards in turn: 3·N queries through a
// healthy 3-shard fleet are N evaluations on each shard.
func TestRouterSpreadsQueriesRoundRobin(t *testing.T) {
	w := tinyWorld(t)
	const n, perShard = 3, 8
	f := startFleetWith(t, w, n, server.Config{}, func(c *Config) {
		c.HealthInterval = time.Hour // no poll can take a shard out of the rotation
		c.Hedge.Disabled = true      // a hedge is a second evaluation
	})
	f.waitConverged(t, len(w.initial))
	before := make([]int, n)
	for i := range before {
		before[i] = f.shardQueries(t, i)
	}
	for i := 0; i < n*perShard; i++ {
		if _, err := f.rclient.Query(w.queries[i%len(w.queries)]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range before {
		if got := f.shardQueries(t, i) - before[i]; got != perShard {
			t.Errorf("shard %d evaluated %d of %d queries, want %d", i, got, n*perShard, perShard)
		}
	}
	if got := f.router.metrics.queryFanouts.Sum(); got != n*perShard {
		t.Errorf("alexrouter_query_fanout sums to %v shards asked, want %d", got, n*perShard)
	}
}

// The satellite bug: a shard's 4xx is an answer about the request, not
// a failure of the shard. One malformed query used to be "no shard
// answered" (502), mark the primary and the hedge peer down, and turn
// the next valid query into a 503 until the health loop came round. The
// health interval is an hour here, so only the data path can change
// what is routable.
func TestRouterRelaysClientErrors(t *testing.T) {
	w := tinyWorld(t)
	const n = 3
	f := startFleetWith(t, w, n, server.Config{}, func(c *Config) {
		c.HealthInterval = time.Hour
	})
	f.waitConverged(t, len(w.initial))

	valid := queryBody(t, server.QueryRequest{Query: w.queries[0]})
	for _, c := range []struct {
		name string
		body []byte
		want int
	}{
		{"malformed query", []byte(`{"query":"SELEKT nonsense"}`), http.StatusBadRequest},
		// The shard reads one JSON value and nothing after it; the router
		// passes the bytes on and the verdict back.
		{"trailing bytes", append(bytes.Clone(valid), "trailing-bytes"...), http.StatusBadRequest},
		// Neither reads past server.MaxQueryBodyBytes: the router refuses
		// this one itself, in the shard's words.
		{"oversized body", append(bytes.Clone(valid), bytes.Repeat([]byte(" "), server.MaxQueryBodyBytes)...), http.StatusRequestEntityTooLarge},
	} {
		wantStatus, _, wantBody := postQuery(t, f.addrs[0], c.body)
		if wantStatus != c.want {
			t.Fatalf("%s: a shard asked directly answers %d, want %d", c.name, wantStatus, c.want)
		}
		status, hdr, body := postQuery(t, f.rts.URL, c.body)
		if status != wantStatus || !bytes.Equal(body, wantBody) {
			t.Fatalf("%s: router answered %d %s, the shard answers %d %s", c.name, status, body, wantStatus, wantBody)
		}
		if d := hdr.Get("X-Alex-Fleet-Degraded"); d != "" {
			t.Fatalf("%s: a client error degraded the fleet: %s", c.name, d)
		}
	}
	h, err := f.router.healthView()
	if err != nil {
		t.Fatal(err)
	}
	if h.Routable != n {
		t.Fatalf("%d of %d shards routable after a client error: %+v", h.Routable, n, h)
	}
	if status, _, body := postQuery(t, f.rts.URL, valid); status != http.StatusOK {
		t.Fatalf("the next valid query got %d: %s", status, body)
	}
}

// One answer row can use links owned by different shards; the router
// must split the feedback so each group lands on (only) its owner.
func TestRouterFeedbackSplitRouting(t *testing.T) {
	for _, tc := range []struct {
		name string
		// refuse makes the second owner's /feedback answer 503 the first
		// time the batch is sent.
		refuse bool
	}{
		{name: "every owner accepts"},
		{name: "one owner refuses", refuse: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := tinyWorld(t)
			n := 2
			tr := faultnet.New(1, nil)
			f := startFleetWith(t, w, n, server.Config{}, func(c *Config) {
				c.Transport = tr
				// One probe at start and no more: the injected 503s are the
				// owner's answer to /feedback, not a shard going unroutable.
				c.HealthInterval = time.Hour
			})
			f.waitConverged(t, len(w.initial))

			// Reject two links with different owners in ONE feedback request.
			ranges := cluster.FleetRanges(n)
			reject := make([]server.LinkJSON, n)
			seen := 0
			for _, l := range w.initial {
				e1 := w.dict.Term(l.E1).Value
				if owner := cluster.OwnerOf(ranges, e1); reject[owner].E1 == "" {
					reject[owner] = server.LinkJSON{E1: e1, E2: w.dict.Term(l.E2).Value}
					seen++
				}
			}
			if seen != n {
				t.Skipf("tiny world hashed onto one shard (owners: %v)", reject)
			}
			body, err := json.Marshal(server.FeedbackRequest{Approve: false, Links: reject})
			if err != nil {
				t.Fatal(err)
			}
			if tc.refuse {
				host := strings.TrimPrefix(f.addrs[1], "http://")
				tr.SetFaults(host, faultnet.Faults{ErrProb: 1})
				status, hdr, data := post(t, f.rts.URL+"/feedback", body)
				if status != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
					t.Fatalf("refused batch: status %d, Retry-After %q, body %s; want 503 with Retry-After",
						status, hdr.Get("Retry-After"), data)
				}
				for _, want := range []string{"shard 0 accepted 1 link(s)", "shard 1 refused 1 link(s)"} {
					if !strings.Contains(string(data), want) {
						t.Fatalf("refusal body %s does not say %q", data, want)
					}
				}
				// Nothing is promised about the slice that landed: it is
				// applied, and the client's retry of the whole batch is the
				// at-least-once delivery every /feedback has.
				ls := waitServed(t, f.clients[0], len(w.initial)-1)
				if servesLink(ls, reject[0]) || !servesLink(ls, reject[1]) {
					t.Fatalf("after the refusal: accepted slice served=%v, refused slice served=%v; want false, true",
						servesLink(ls, reject[0]), servesLink(ls, reject[1]))
				}
				tr.ClearFaults(host)
			}

			if status, _, data := post(t, f.rts.URL+"/feedback", body); status != http.StatusAccepted {
				t.Fatalf("batch: status %d, body %s; want 202", status, data)
			}
			// Both removals must propagate to every shard's served set.
			f.waitConverged(t, len(w.initial)-2)
			ls := waitServed(t, f.rclient, len(w.initial)-2)
			for _, r := range reject {
				if servesLink(ls, r) {
					t.Fatalf("rejected link %v still served", r)
				}
			}
		})
	}
}

// restartShard rebuilds shard id of the fleet on its ORIGINAL address
// and data directory, as an operator restarting a crashed alexd would.
func (f *testFleet) restartShard(t *testing.T, w *world, id int, scfg server.Config) {
	t.Helper()
	cfg := scfg
	cfg.Fleet = &server.FleetConfig{ShardID: id, Shards: f.n, ReplicateEvery: 25 * time.Millisecond}
	if cfg.FlushInterval == 0 {
		cfg.FlushInterval = 20 * time.Millisecond
	}
	cfg.DataDir = fmt.Sprintf("%s/shard-%d", scfg.DataDir, id)
	s, err := server.New(shardEngine(w, f.n, id), w.dict, w.sources, cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr := strings.TrimPrefix(f.addrs[id], "http://")
	var l net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		l, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Listener.Close()
	ts.Listener = l
	ts.Start()
	f.shards[id] = s
	f.https[id] = ts
	if err := s.SetPeers(f.addrs); err != nil {
		t.Fatal(err)
	}
}

// The failover acceptance: killing a shard loses no acked feedback
// (fsync-before-ack + journal recovery), the router keeps serving
// reads meanwhile, and the restarted shard rejoins and catches up.
func TestRouterFailoverRecoversAckedFeedback(t *testing.T) {
	w := tinyWorld(t)
	n := 3
	base := server.Config{DataDir: t.TempDir(), FlushInterval: 20 * time.Millisecond}
	f := startFleet(t, w, n, base)
	f.waitConverged(t, len(w.initial))

	// Pick the wrong link a4->b5 and its owner.
	ranges := cluster.FleetRanges(n)
	victimLink := server.LinkJSON{E1: "http://ds1/a4", E2: "http://ds2/b5"}
	victim := cluster.OwnerOf(ranges, victimLink.E1)

	// Reject through the router (202 = journaled + fsynced at the
	// owner), then crash the owner immediately — no drain, no
	// checkpoint. The ack obliges recovery to resurrect the verdict.
	if err := f.rclient.Feedback([]server.LinkJSON{victimLink}, false); err != nil {
		t.Fatal(err)
	}
	f.https[victim].Close()
	f.shards[victim].Abort()

	// The router must route around the corpse: reads keep working.
	deadline := time.Now().Add(5 * time.Second)
	for {
		h, err := f.router.healthView()
		if err == nil && h.Routable == n-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never noticed the dead shard: %+v", h)
		}
		time.Sleep(10 * time.Millisecond)
	}
	res, err := f.rclient.Query(w.queries[0])
	if err != nil {
		t.Fatalf("query with a dead shard: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("query with a dead shard returned nothing")
	}

	// Writes for the dead shard's range are refused retryably; writes
	// for live ranges still work. a5->b4 is the other wrong link.
	if err := f.rclient.Feedback([]server.LinkJSON{victimLink}, false); err == nil {
		t.Fatal("feedback for a dead shard's range was accepted")
	}
	liveLink := server.LinkJSON{E1: "http://ds1/a5", E2: "http://ds2/b4"}
	liveRejected := false
	if cluster.OwnerOf(ranges, liveLink.E1) != victim {
		if err := f.rclient.Feedback([]server.LinkJSON{liveLink}, false); err != nil {
			t.Fatalf("feedback for a live shard refused: %v", err)
		}
		liveRejected = true
	}

	// Restart the shard over its journal: recovery must replay the
	// acked rejection, the router must see it healthy again, and the
	// removal must replicate fleet-wide.
	f.restartShard(t, w, victim, base)
	deadline = time.Now().Add(10 * time.Second)
	for {
		h, err := f.router.healthView()
		if err == nil && h.Routable == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted shard never became routable")
		}
		time.Sleep(10 * time.Millisecond)
	}
	rec := f.shards[victim].Recovery()
	if rec.CheckpointSeq == 0 && rec.Replayed == 0 {
		t.Fatal("restart recovered nothing — the acked feedback was lost")
	}

	// Every shard (and the router) converges to a served set without
	// the rejected link(s).
	want := len(w.initial) - 1
	if liveRejected {
		want--
	}
	newClient := server.NewClient(f.addrs[victim])
	newClient.SetRetryPolicy(server.RetryPolicy{MaxAttempts: 1})
	f.clients[victim] = newClient
	f.waitConverged(t, want)
	ls := waitServed(t, f.rclient, want)
	for _, l := range ls.Links {
		if l == victimLink {
			t.Fatal("acked rejection lost after crash recovery")
		}
	}
}

// healthView fetches the router's own health summary in-process.
func (r *Router) healthView() (*RouterHealth, error) {
	rec := httptest.NewRecorder()
	r.handleHealthz(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var h RouterHealth
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		return nil, err
	}
	return &h, nil
}
