package server

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"alex/internal/core"
	"alex/internal/eval"
	"alex/internal/federation"
	"alex/internal/links"
	"alex/internal/paris"
	"alex/internal/rdf"
	"alex/internal/synth"
)

// tinyWorld builds a two-source federation by hand: dataset 1 holds
// labels, dataset 2 holds names, one correct sameAs link (a1-b1) and
// one wrong link (a2-b2w).
func tinyWorld(t *testing.T) (*rdf.Dict, []federation.Source, *core.System, links.Set) {
	t.Helper()
	dict := rdf.NewDict()
	g1 := rdf.NewGraphWithDict(dict)
	g2 := rdf.NewGraphWithDict(dict)
	label := rdf.IRI("http://ds1/label")
	name := rdf.IRI("http://ds2/name")
	a1, a2 := rdf.IRI("http://ds1/a1"), rdf.IRI("http://ds1/a2")
	b1, b2w := rdf.IRI("http://ds2/b1"), rdf.IRI("http://ds2/b2w")
	g1.Insert(rdf.Triple{S: a1, P: label, O: rdf.Literal("alpha")})
	g1.Insert(rdf.Triple{S: a2, P: label, O: rdf.Literal("beta")})
	g2.Insert(rdf.Triple{S: b1, P: name, O: rdf.Literal("alpha prime")})
	g2.Insert(rdf.Triple{S: b2w, P: name, O: rdf.Literal("unrelated")})

	id := func(term rdf.Term) rdf.ID {
		i, ok := dict.Lookup(term)
		if !ok {
			t.Fatalf("unknown term %v", term)
		}
		return i
	}
	initial := links.NewSet(
		links.Link{E1: id(a1), E2: id(b1)},
		links.Link{E1: id(a2), E2: id(b2w)},
	)
	cfg := core.DefaultConfig()
	sys := core.New(g1, g2, g1.SubjectIDs(), g2.SubjectIDs(), initial.Slice(), cfg)
	sources := []federation.Source{{Name: "ds1", Graph: g1}, {Name: "ds2", Graph: g2}}
	return dict, sources, sys, initial
}

func newTestServer(t *testing.T, eng Engine, dict *rdf.Dict, sources []federation.Source, cfg Config) (*Server, *httptest.Server, *Client) {
	t.Helper()
	s, err := New(eng, dict, sources, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.Close() })
	// Retries off: tests that provoke 429/503 assert on the immediate
	// response; client_test.go covers the retry behavior.
	client := NewClient(ts.URL)
	client.SetRetryPolicy(RetryPolicy{MaxAttempts: 1})
	return s, ts, client
}

func TestQueryFeedbackRoundTrip(t *testing.T) {
	dict, sources, sys, _ := tinyWorld(t)
	_, _, client := newTestServer(t, sys, dict, sources, Config{FlushInterval: 20 * time.Millisecond})

	// A query against a ds1 entity through the ds2 name predicate must
	// cross the sameAs link and report it as provenance.
	res, err := client.Query(`SELECT ?n WHERE { <http://ds1/a1> <http://ds2/name> ?n . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	row := res.Rows[0]
	if row.Binding["n"].Value != "alpha prime" {
		t.Fatalf("binding = %+v", row.Binding)
	}
	if len(row.Links) != 1 || row.Links[0].E1 != "http://ds1/a1" || row.Links[0].E2 != "http://ds2/b1" {
		t.Fatalf("links = %+v", row.Links)
	}
	if res.SnapshotVersion == 0 {
		t.Fatal("snapshot version missing")
	}

	// Reject the wrong link through the feedback API and wait for a new
	// snapshot: the link must leave the published set.
	if err := client.Feedback([]LinkJSON{{E1: "http://ds1/a2", E2: "http://ds2/b2w"}}, false); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		ls, err := client.Links()
		if err != nil {
			t.Fatal(err)
		}
		if ls.Count == 1 {
			if ls.Links[0].E2 != "http://ds2/b1" {
				t.Fatalf("wrong surviving link: %+v", ls.Links)
			}
			if ls.SnapshotVersion < 2 {
				t.Fatalf("snapshot version = %d, want >= 2", ls.SnapshotVersion)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rejected link never left the snapshot (count=%d)", ls.Count)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestBadRequests(t *testing.T) {
	dict, sources, sys, _ := tinyWorld(t)
	_, ts, client := newTestServer(t, sys, dict, sources, Config{})

	if _, err := client.Query("SELECT nonsense"); err == nil {
		t.Fatal("malformed query accepted")
	}
	if err := client.Feedback([]LinkJSON{{E1: "http://nope", E2: "http://ds2/b1"}}, true); err == nil {
		t.Fatal("unknown entity accepted")
	}
	if err := client.Feedback(nil, true); err == nil {
		t.Fatal("empty feedback accepted")
	}
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query = %d, want 405", resp.StatusCode)
	}
}

func TestHealthzAndNTriples(t *testing.T) {
	dict, sources, sys, initial := tinyWorld(t)
	_, ts, client := newTestServer(t, sys, dict, sources, Config{})

	h, err := client.Healthz()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.SnapshotVersion != 1 || h.CandidateLinks != initial.Len() {
		t.Fatalf("health = %+v", h)
	}
	resp, err := http.Get(ts.URL + "/links?format=ntriples")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "owl#sameAs") {
		t.Fatalf("ntriples output missing sameAs: %q", data)
	}
}

// blockingEngine wraps a real system but parks every Feedback call
// until released, simulating a slow episode held open by the writer.
type blockingEngine struct {
	*core.System
	entered chan struct{}
	release chan struct{}
	applied int
}

func newBlockingEngine(sys *core.System) *blockingEngine {
	return &blockingEngine{
		System:  sys,
		entered: make(chan struct{}, 1024),
		release: make(chan struct{}),
	}
}

func (b *blockingEngine) Feedback(l links.Link, positive bool) {
	b.entered <- struct{}{}
	<-b.release
	b.applied++
	b.System.Feedback(l, positive)
}

// TestReadersNeverBlockOnWriter holds an episode open (the writer is
// parked inside Feedback) and asserts queries still complete: the read
// path takes no lock shared with feedback processing.
func TestReadersNeverBlockOnWriter(t *testing.T) {
	dict, sources, sys, _ := tinyWorld(t)
	eng := newBlockingEngine(sys)
	_, _, client := newTestServer(t, eng, dict, sources, Config{DrainTimeout: time.Second})

	if err := client.Feedback([]LinkJSON{{E1: "http://ds1/a1", E2: "http://ds2/b1"}}, true); err != nil {
		t.Fatal(err)
	}
	select {
	case <-eng.entered:
		// writer is now parked mid-episode
	case <-time.After(5 * time.Second):
		t.Fatal("writer never picked up feedback")
	}

	start := time.Now()
	for i := 0; i < 25; i++ {
		res, err := client.Query(`SELECT ?n WHERE { <http://ds1/a1> <http://ds2/name> ?n . }`)
		if err != nil {
			t.Fatalf("query %d while episode open: %v", i, err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("query %d rows = %d", i, len(res.Rows))
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("queries blocked on the writer: %s for 25 queries", elapsed)
	}
	close(eng.release)
}

// TestBackpressure429 fills the queue while the writer is parked and
// asserts: the overflow request gets 429 + Retry-After and is NOT
// applied, while every acknowledged item IS applied after draining —
// never a dropped-and-acknowledged feedback.
func TestBackpressure429(t *testing.T) {
	dict, sources, sys, _ := tinyWorld(t)
	eng := newBlockingEngine(sys)
	s, ts, client := newTestServer(t, eng, dict, sources, Config{QueueSize: 1, DrainTimeout: 5 * time.Second})

	good := []LinkJSON{{E1: "http://ds1/a1", E2: "http://ds2/b1"}}
	// First item: writer takes it off the queue and parks.
	if err := client.Feedback(good, true); err != nil {
		t.Fatal(err)
	}
	<-eng.entered
	// Second item: sits in the queue (capacity 1).
	if err := client.Feedback(good, true); err != nil {
		t.Fatal(err)
	}
	// Third item: queue full -> 429 with Retry-After.
	body := `{"approve":true,"links":[{"e1":"http://ds1/a1","e2":"http://ds2/b1"}]}`
	resp, err := http.Post(ts.URL+"/feedback", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if err := client.Feedback(good, true); err != ErrQueueFull {
		t.Fatalf("client error = %v, want ErrQueueFull", err)
	}

	close(eng.release)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if eng.applied != 2 {
		t.Fatalf("applied = %d, want exactly the 2 acknowledged items", eng.applied)
	}
}

// TestGracefulDrain: feedback acknowledged just before shutdown is
// still applied and lands in a final published snapshot.
func TestGracefulDrain(t *testing.T) {
	dict, sources, sys, _ := tinyWorld(t)
	s, _, client := newTestServer(t, sys, dict, sources, Config{
		EpisodeSize:   1000, // never auto-finishes: only the drain path closes the episode
		FlushInterval: time.Hour,
	})
	if err := client.Feedback([]LinkJSON{{E1: "http://ds1/a2", E2: "http://ds2/b2w"}}, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Version < 2 {
		t.Fatalf("no final snapshot published: version %d", snap.Version)
	}
	if snap.Links.Len() != 1 {
		t.Fatalf("drained feedback not applied: %d links", snap.Links.Len())
	}
}

func TestPanicRecovery(t *testing.T) {
	dict, sources, sys, _ := tinyWorld(t)
	s, err := New(sys, dict, sources, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.recoverMiddleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if s.metrics.panics.Value() != 1 {
		t.Fatalf("panics counter = %d", s.metrics.panics.Value())
	}
}

// TestQueryTimeout: a query that overruns its deadline is stopped, not
// abandoned. The cross product below is 9 × 10⁶ rows — seconds of work
// and a gigabyte of rows if nothing stops it — over a source that cannot
// fail, so only the evaluator's own look at its context ends it. The
// client gets its 504 when the work has stopped, and the one admission
// slot is free again because it has.
func TestQueryTimeout(t *testing.T) {
	dict, _, sys, _ := tinyWorld(t)
	big := rdf.NewGraphWithDict(dict)
	for i := 0; i < 3001; i++ {
		big.Insert(rdf.Triple{S: rdf.IRI(fmt.Sprintf("http://big/s%d", i)), P: rdf.IRI("http://big/p"), O: rdf.Literal(fmt.Sprint(i))})
	}
	_, ts, _ := newTestServer(t, sys, dict, []federation.Source{{Name: "big", Graph: big}}, Config{MaxConcurrentQueries: 1})
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}

	before := heap()
	start := time.Now()
	status := post(`{"query":"SELECT ?a WHERE { ?a ?b ?c . ?d ?e ?f . }","timeout_ms":20}`)
	if took := time.Since(start); status != http.StatusGatewayTimeout || took > 250*time.Millisecond {
		t.Fatalf("status %d after %v, want 504 within 250ms of a 20ms deadline", status, took)
	}

	time.Sleep(50 * time.Millisecond)
	var stacks bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&stacks, 2); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(stacks.String(), "alex/internal/federation.") {
		t.Errorf("an evaluation is still running 50ms after its 504:\n%s", &stacks)
	}
	if grew := heap() - before; grew > 64<<20 {
		t.Errorf("heap grew by %d MB across a stopped query", grew>>20)
	}
	if status := post(`{"query":"SELECT ?o WHERE { <http://big/s7> <http://big/p> ?o . }"}`); status != http.StatusOK {
		t.Errorf("lookup after the timeout: status %d, want 200", status)
	}

	// The stopped query is counted, and is in the histogram with the
	// time it ran for, beside the lookup.
	metrics := getMetricsText(t, ts.URL)
	if sum := metricValue(t, metrics, "alexd_query_duration_seconds_sum"); sum < 0.020 {
		t.Errorf("alexd_query_duration_seconds_sum = %v, want at least the 20ms deadline", sum)
	}
	for _, want := range []string{
		"# HELP alexd_query_timeouts_total Queries stopped at their deadline.",
		"alexd_query_timeouts_total 1",
		"# HELP alexd_query_duration_seconds Query evaluation latency; a query stopped at its deadline counts with the time at which it stopped.",
		"alexd_query_duration_seconds_count 2",
		"alexd_queries_total 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, metrics)
		}
	}
}

// linkSetOf interns wire links back into a links.Set for evaluation.
func linkSetOf(t *testing.T, dict *rdf.Dict, ls []LinkJSON) links.Set {
	t.Helper()
	out := links.NewSet()
	for _, lj := range ls {
		e1, ok1 := dict.Lookup(rdf.IRI(lj.E1))
		e2, ok2 := dict.Lookup(rdf.IRI(lj.E2))
		if !ok1 || !ok2 {
			t.Fatalf("unknown link on the wire: %+v", lj)
		}
		out.Add(links.Link{E1: e1, E2: e2})
	}
	return out
}

// gtIRIs converts a ground-truth link set to IRI-string pairs.
func gtIRIs(dict *rdf.Dict, gt links.Set) map[LinkJSON]bool {
	out := make(map[LinkJSON]bool, gt.Len())
	for _, l := range gt.Slice() {
		out[LinkJSON{E1: dict.Term(l.E1).Value, E2: dict.Term(l.E2).Value}] = true
	}
	return out
}

// TestServedFeedbackLoopImprovesF is the end-to-end acceptance test:
// concurrent clients run federated queries over HTTP, judge each answer
// row against the synthetic ground truth, and post answer-level
// feedback; the writer runs episodes and publishes snapshots; the final
// snapshot's F-measure must beat the initial link set's, and /metrics
// must show the traffic.
func TestServedFeedbackLoopImprovesF(t *testing.T) {
	prof, ok := synth.ProfileByName("dbpedia-drugbank")
	if !ok {
		t.Fatal("missing profile")
	}
	prof = prof.Scale(0.4)
	ds := synth.Generate(prof)
	scored := paris.Link(ds.G1, ds.G2, ds.Entities1, ds.Entities2, paris.NewOptions())
	initial := make([]links.Link, len(scored))
	for i, sc := range scored {
		initial[i] = sc.Link
	}
	cfg := core.DefaultConfig()
	cfg.Partitions = 2
	sys := core.New(ds.G1, ds.G2, ds.Entities1, ds.Entities2, initial, cfg)
	before := eval.Compute(links.NewSet(initial...), ds.GroundTruth)

	sources := []federation.Source{{Name: "ds1", Graph: ds.G1}, {Name: "ds2", Graph: ds.G2}}
	s, _, client := newTestServer(t, sys, ds.Dict, sources, Config{
		EpisodeSize:   200,
		QueueSize:     512,
		FlushInterval: 100 * time.Millisecond,
	})

	gt := gtIRIs(ds.Dict, ds.GroundTruth)
	// Iterate query+feedback rounds until quality clearly improves, with
	// a hard cap as the failure condition. Round 0 exercises both verdict
	// paths; later rounds only reject wrong rows. Re-approving the same
	// correct links every round would re-trigger exploration each episode
	// (firstVisit resets per episode), and whether that candidate flood
	// outruns the rejection cleanup depends on scheduling — reject-only
	// rounds shrink the candidate set monotonically instead, so the test
	// converges regardless of timing.
	const maxRounds, workers = 14, 4
	for round := 0; round < maxRounds; round++ {
		round := round
		ls, err := client.Links()
		if err != nil {
			t.Fatal(err)
		}
		fNow := eval.Compute(linkSetOf(t, ds.Dict, ls.Links), ds.GroundTruth).F1
		if round > 0 && fNow > before.F1+0.05 {
			break
		}
		work := make(chan string, len(ls.Links))
		seen := map[string]bool{}
		for _, l := range ls.Links {
			if !seen[l.E1] {
				seen[l.E1] = true
				work <- l.E1
			}
		}
		close(work)

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for e1 := range work {
					q := fmt.Sprintf("SELECT ?n WHERE { <%s> <%s> ?n . }", e1, synth.P2Name.Value)
					res, err := client.Query(q)
					if err != nil {
						t.Errorf("query %s: %v", e1, err)
						return
					}
					for _, row := range res.Rows {
						if len(row.Links) == 0 {
							continue
						}
						approve := true
						for _, lj := range row.Links {
							if !gt[lj] {
								approve = false
							}
						}
						if approve && round > 0 {
							continue
						}
						for {
							err := client.Feedback(row.Links, approve)
							if err == ErrQueueFull {
								time.Sleep(5 * time.Millisecond)
								continue
							}
							if err != nil {
								t.Errorf("feedback: %v", err)
							}
							break
						}
					}
				}
			}()
		}
		wg.Wait()
		// Let the writer drain the round before re-reading /links.
		deadline := time.Now().Add(10 * time.Second)
		for {
			h, err := client.Healthz()
			if err != nil {
				t.Fatal(err)
			}
			if h.QueueDepth == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("queue never drained")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	metrics, err := client.MetricsText()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	after := eval.Compute(s.Snapshot().Links, ds.GroundTruth)
	t.Logf("served loop: %v -> %v (snapshot v%d, episode %d)",
		before, after, s.Snapshot().Version, s.Snapshot().Episode)
	if after.F1 <= before.F1 {
		t.Fatalf("F did not improve over HTTP: %.3f -> %.3f", before.F1, after.F1)
	}
	for _, want := range []string{"alexd_queries_total", "alexd_feedback_total", "alexd_episodes_total"} {
		val := metricValue(t, metrics, want)
		if val <= 0 {
			t.Fatalf("metric %s = %v, want > 0\n%s", want, val, metrics)
		}
	}
}

func metricValue(t *testing.T, exposition, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, name+" "), "%g", &v); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in exposition", name)
	return 0
}

// TestConcurrentQueriesDuringFeedback races many readers against a
// steady feedback stream; run under -race this is the data-race proof
// for the snapshot-isolation design.
func TestConcurrentQueriesDuringFeedback(t *testing.T) {
	dict, sources, sys, _ := tinyWorld(t)
	_, _, client := newTestServer(t, sys, dict, sources, Config{
		EpisodeSize:   2,
		FlushInterval: 5 * time.Millisecond,
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			err := client.Feedback([]LinkJSON{{E1: "http://ds1/a1", E2: "http://ds2/b1"}}, rng.Intn(2) == 0)
			if err != nil && err != ErrQueueFull {
				t.Errorf("feedback: %v", err)
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := client.Query(`SELECT ?n WHERE { <http://ds1/a1> <http://ds2/name> ?n . }`); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
}
