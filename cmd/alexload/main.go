// Command alexload is the load generator for alexd: it hammers /query
// and /feedback from many concurrent workers and reports throughput and
// latency percentiles for both endpoints, plus the server-side episode
// progress it provoked.
//
// Against a running alexd:
//
//	alexload -server localhost:8080 -concurrency 16 -duration 30s
//
// Against several targets at once — e.g. every shard of a fleet, or a
// router next to a standalone for comparison — give -server a comma-
// separated list; workers spread requests round-robin and the report
// adds a per-target latency/error breakdown:
//
//	alexload -server localhost:8081,localhost:8082,localhost:8083
//
// Self-contained (spins up an in-process server over a synthetic
// profile, then load-tests it — no daemon needed):
//
//	alexload -profile dbpedia-drugbank -scale 0.5 -duration 10s
//
// Each worker loops: pick a random entity from the published link set,
// run the -query template against it (default: a cross-source name
// lookup that must traverse a sameAs link), then with probability
// -feedback-frac judge one returned row and POST the verdict. In
// self-contained mode the verdict comes from the synthetic ground
// truth, so the run doubles as a serving-path quality demo; against a
// remote server verdicts are random approve/reject.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"alex/internal/core"
	"alex/internal/eval"
	"alex/internal/federation"
	"alex/internal/links"
	"alex/internal/paris"
	"alex/internal/server"
	"alex/internal/synth"
)

func main() {
	servers := flag.String("server", "", "comma-separated alexd/alexrouter addresses (empty: self-contained in-process server)")
	profile := flag.String("profile", "dbpedia-drugbank", "synthetic profile for self-contained mode")
	scale := flag.Float64("scale", 0.5, "profile scale for self-contained mode")
	duration := flag.Duration("duration", 10*time.Second, "load duration")
	concurrency := flag.Int("concurrency", 8, "concurrent workers")
	feedbackFrac := flag.Float64("feedback-frac", 0.5, "fraction of answered queries followed by feedback")
	queryTmpl := flag.String("query", "SELECT ?n WHERE { <{e1}> <http://ds2.example.org/prop/name> ?n . }",
		"query template; {e1} is replaced by an entity IRI from /links")
	seed := flag.Int64("seed", 1, "workload seed")
	flag.Parse()

	var (
		names   []string
		clients []*server.Client
		gt      map[server.LinkJSON]bool // self-contained mode only
	)
	if *servers != "" {
		for _, a := range strings.Split(*servers, ",") {
			a = strings.TrimSpace(a)
			names = append(names, a)
			clients = append(clients, server.NewClient(a))
		}
	} else {
		fmt.Printf("self-contained mode: serving %s at scale %.2f in-process\n", *profile, *scale)
		ts, srv, groundTruth := selfHost(*profile, *scale)
		defer ts.Close()
		defer srv.Close()
		names = []string{"in-process"}
		clients = []*server.Client{server.NewClient(ts.URL)}
		gt = groundTruth
	}

	starts := make([]*server.HealthResponse, len(clients))
	for i, c := range clients {
		h, err := c.Healthz()
		if err != nil {
			fatal(fmt.Errorf("target %s not reachable: %w", names[i], err))
		}
		starts[i] = h
	}
	start := starts[0]
	ls, err := clients[0].Links()
	if err != nil {
		fatal(err)
	}
	if len(ls.Links) == 0 {
		fatal(fmt.Errorf("server has no candidate links to query"))
	}
	entities := make([]string, 0, len(ls.Links))
	seen := map[string]bool{}
	for _, l := range ls.Links {
		if !seen[l.E1] {
			seen[l.E1] = true
			entities = append(entities, l.E1)
		}
	}
	fmt.Printf("targets: %d entities from snapshot v%d (%d links)\n", len(entities), ls.SnapshotVersion, ls.Count)

	// Counters and latency samples are kept per TARGET so a fleet run
	// shows which shard (or router) is slow or erroring; the headline
	// report aggregates across them.
	per := make([]*targetStats, len(clients))
	for i := range per {
		per[i] = &targetStats{
			queryLat:    newLatencies(*concurrency),
			feedbackLat: newLatencies(*concurrency),
		}
	}
	var (
		stopAt = time.Now().Add(*duration)
		wg     sync.WaitGroup
	)
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(w)))
			for n := w; time.Now().Before(stopAt); n++ {
				// Round-robin over targets, offset per worker so
				// small runs still touch every target.
				ti := n % len(clients)
				c, st := clients[ti], per[ti]
				e1 := entities[rng.Intn(len(entities))]
				q := strings.ReplaceAll(*queryTmpl, "{e1}", e1)
				t0 := time.Now()
				res, err := c.Query(q)
				st.queryLat.observe(w, time.Since(t0))
				if err != nil {
					st.queryErrs.Add(1)
					continue
				}
				st.queries.Add(1)
				st.rows.Add(uint64(len(res.Rows)))
				if len(res.Rows) == 0 || rng.Float64() >= *feedbackFrac {
					continue
				}
				row := res.Rows[rng.Intn(len(res.Rows))]
				if len(row.Links) == 0 {
					continue
				}
				approve := rng.Intn(2) == 0
				if gt != nil {
					approve = true
					for _, lj := range row.Links {
						if !gt[lj] {
							approve = false
						}
					}
				}
				t1 := time.Now()
				err = c.Feedback(row.Links, approve)
				st.feedbackLat.observe(w, time.Since(t1))
				switch err {
				case nil:
					st.feedbacks.Add(1)
				case server.ErrQueueFull:
					st.rejected429.Add(1)
				default:
					st.feedbackErrs.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()

	end, err := clients[0].Healthz()
	if err != nil {
		fatal(err)
	}
	total := sumStats(per)
	elapsed := *duration
	fmt.Printf("\n--- load report (%s, %d workers, %d targets) ---\n", elapsed, *concurrency, len(clients))
	fmt.Printf("queries:   %d ok, %d errors, %.1f qps, %.1f rows/query\n",
		total.queries.Load(), total.queryErrs.Load(), float64(total.queries.Load())/elapsed.Seconds(),
		safeDiv(float64(total.rows.Load()), float64(total.queries.Load())))
	p := total.queryLat.percentiles()
	fmt.Printf("  latency: p50=%s p95=%s p99=%s max=%s\n", p[0], p[1], p[2], p[3])
	fmt.Printf("feedback:  %d accepted, %d backpressured (429), %d errors, %.1f fps\n",
		total.feedbacks.Load(), total.rejected429.Load(), total.feedbackErrs.Load(),
		float64(total.feedbacks.Load())/elapsed.Seconds())
	p = total.feedbackLat.percentiles()
	fmt.Printf("  latency: p50=%s p95=%s p99=%s max=%s\n", p[0], p[1], p[2], p[3])
	fmt.Printf("server:    episodes %d -> %d, snapshot v%d -> v%d, %d -> %d links\n",
		start.Episode, end.Episode, start.SnapshotVersion, end.SnapshotVersion,
		start.CandidateLinks, end.CandidateLinks)

	if len(clients) > 1 {
		fmt.Printf("\n--- per-target breakdown ---\n")
		for i, name := range names {
			st := per[i]
			qp := st.queryLat.percentiles()
			fmt.Printf("%s:\n", name)
			fmt.Printf("  queries:  %d ok, %d errors, p50=%s p95=%s p99=%s\n",
				st.queries.Load(), st.queryErrs.Load(), qp[0], qp[1], qp[2])
			fp := st.feedbackLat.percentiles()
			fmt.Printf("  feedback: %d accepted, %d backpressured, %d errors, p50=%s p95=%s p99=%s\n",
				st.feedbacks.Load(), st.rejected429.Load(), st.feedbackErrs.Load(), fp[0], fp[1], fp[2])
			if h, err := clients[i].Healthz(); err != nil {
				fmt.Printf("  health:   unreachable (%v)\n", err)
			} else {
				fmt.Printf("  health:   episodes %d -> %d, snapshot v%d, %d links\n",
					starts[i].Episode, h.Episode, h.SnapshotVersion, h.CandidateLinks)
			}
		}
	}
}

// targetStats is one target's slice of the workload.
type targetStats struct {
	queries, queryErrs, rows             atomic.Uint64
	feedbacks, rejected429, feedbackErrs atomic.Uint64
	queryLat, feedbackLat                *latencies
}

// sumStats aggregates per-target stats into fleet-wide totals; latency
// samples are concatenated so the headline percentiles cover every
// request regardless of target.
func sumStats(per []*targetStats) *targetStats {
	out := &targetStats{queryLat: &latencies{}, feedbackLat: &latencies{}}
	for _, st := range per {
		out.queries.Add(st.queries.Load())
		out.queryErrs.Add(st.queryErrs.Load())
		out.rows.Add(st.rows.Load())
		out.feedbacks.Add(st.feedbacks.Load())
		out.rejected429.Add(st.rejected429.Load())
		out.feedbackErrs.Add(st.feedbackErrs.Load())
		out.queryLat.perWorker = append(out.queryLat.perWorker, st.queryLat.perWorker...)
		out.feedbackLat.perWorker = append(out.feedbackLat.perWorker, st.feedbackLat.perWorker...)
	}
	return out
}

// selfHost builds a synthetic world, an ALEX system seeded by PARIS,
// and an in-process HTTP server over it.
func selfHost(profile string, scale float64) (*httptest.Server, *server.Server, map[server.LinkJSON]bool) {
	prof, ok := synth.ProfileByName(profile)
	if !ok {
		fatal(fmt.Errorf("unknown profile %q", profile))
	}
	prof = prof.Scale(scale)
	ds := synth.Generate(prof)
	scored := paris.Link(ds.G1, ds.G2, ds.Entities1, ds.Entities2, paris.NewOptions())
	initial := make([]links.Link, len(scored))
	for i, s := range scored {
		initial[i] = s.Link
	}
	fmt.Printf("initial quality: %v\n", eval.Compute(links.NewSet(initial...), ds.GroundTruth))
	cfg := core.DefaultConfig()
	cfg.Partitions = prof.Partitions
	sys := core.New(ds.G1, ds.G2, ds.Entities1, ds.Entities2, initial, cfg)
	srv, err := server.New(sys, ds.Dict, []federation.Source{
		{Name: "ds1", Graph: ds.G1},
		{Name: "ds2", Graph: ds.G2},
	}, server.Config{})
	if err != nil {
		fatal(err)
	}
	gt := make(map[server.LinkJSON]bool, ds.GroundTruth.Len())
	for _, l := range ds.GroundTruth.Slice() {
		gt[server.LinkJSON{E1: ds.Dict.Term(l.E1).Value, E2: ds.Dict.Term(l.E2).Value}] = true
	}
	return httptest.NewServer(srv.Handler()), srv, gt
}

// latencies collects per-worker samples without contention.
type latencies struct {
	perWorker [][]time.Duration
}

func newLatencies(workers int) *latencies {
	return &latencies{perWorker: make([][]time.Duration, workers)}
}

func (l *latencies) observe(w int, d time.Duration) {
	l.perWorker[w] = append(l.perWorker[w], d)
}

// percentiles returns p50, p95, p99 and max over all samples.
func (l *latencies) percentiles() [4]time.Duration {
	var all []time.Duration
	for _, s := range l.perWorker {
		all = append(all, s...)
	}
	if len(all) == 0 {
		return [4]time.Duration{}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(all)-1))
		return all[i].Round(time.Microsecond)
	}
	return [4]time.Duration{at(0.50), at(0.95), at(0.99), all[len(all)-1].Round(time.Microsecond)}
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "alexload: %v\n", err)
	os.Exit(1)
}
